// Package arena provides a slab allocator for float32 parameter state.
//
// It is the repository's analogue of the paper's Transparent Hugepages
// optimization (§5.4, App. D, Table 4): instead of one small heap object
// per neuron (many pages, many pointer targets, TLB/GC pressure), an Arena
// packs a whole layer's weights and optimizer moments into a handful of
// large contiguous slabs and hands out row views over them.
package arena

import (
	"fmt"
	"os"
	"sync/atomic"
	"unsafe"
)

// CacheLineBytes is the alignment granule of AllocAligned and the typed
// allocations, so buffers owned by different writers never share a cache
// line (the false-sharing opportunity App. D describes).
const CacheLineBytes = 64

const floatsPerLine = CacheLineBytes / 4

// Backend selects where an arena's slabs come from.
type Backend int32

const (
	// BackendHeap carves slabs from ordinary Go heap allocations.
	BackendHeap Backend = iota
	// BackendMmap carves slabs from anonymous private mmap regions
	// advised MADV_HUGEPAGE — the paper's Transparent Hugepages knob
	// applied directly to parameter state. Unsupported platforms (and
	// failed maps) fall back to the heap slab transparently; the carved
	// slices behave identically either way.
	BackendMmap
)

// defaultBackend is the backend New/NewDefault stamp on fresh arenas.
// Initialized from SLIDE_ARENA ("mmap" or "heap"), overridable with
// SetBackend.
var defaultBackend atomic.Int32

func init() {
	switch os.Getenv("SLIDE_ARENA") {
	case "mmap":
		defaultBackend.Store(int32(BackendMmap))
	}
}

// SetBackend changes the backend used by arenas created after the call
// and returns the previous default. Existing arenas keep the backend
// they were built with.
func SetBackend(b Backend) Backend {
	return Backend(defaultBackend.Swap(int32(b)))
}

// DefaultBackend reports the backend new arenas will use. When the
// platform has no mmap support, BackendMmap still reports itself here
// but every slab falls back to the heap.
func DefaultBackend() Backend { return Backend(defaultBackend.Load()) }

// Arena allocates float32 slices out of large slabs. A second byte-slab
// class backs the quantized (uint16/int8) allocations, carved with the
// same cache-line alignment.
type Arena struct {
	slabSize int
	backend  Backend
	slabs    [][]float32
	cur      []float32
	off      int

	bslabs [][]byte
	bcur   []byte
	boff   int

	// mapped holds the raw mmap regions backing mmap-backend slabs, for
	// Release to unmap. Heap slabs are garbage collected instead.
	mapped [][]byte
	// freeF/freeB are retired standard-size slabs Reset has zeroed for
	// reuse, so a rebuild cycle (reload, shard re-init) reuses its
	// mappings instead of growing the address space.
	freeF [][]float32
	freeB [][]byte
}

// New returns an arena whose slabs hold slabFloats float32 values each
// (minimum 1<<16). Larger slabs mean fewer distinct heap objects; the
// default in NewDefault is 1<<22 floats (16 MiB), a "huge page" scale slab.
func New(slabFloats int) *Arena {
	if slabFloats < 1<<16 {
		slabFloats = 1 << 16
	}
	return &Arena{slabSize: slabFloats, backend: DefaultBackend()}
}

// NewDefault returns an arena with 16 MiB slabs.
func NewDefault() *Arena { return New(1 << 22) }

// newFloatSlab produces one zeroed slab of n floats from the arena's
// backend: a recycled slab when one fits, an mmap region when the
// backend asks for one and the platform delivers, the heap otherwise.
func (a *Arena) newFloatSlab(n int) []float32 {
	if n == a.slabSize && len(a.freeF) > 0 {
		s := a.freeF[len(a.freeF)-1]
		a.freeF = a.freeF[:len(a.freeF)-1]
		return s
	}
	if a.backend == BackendMmap {
		if b := mmapSlab(n * 4); b != nil {
			a.mapped = append(a.mapped, b)
			return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
		}
	}
	return make([]float32, n)
}

// newByteSlab is newFloatSlab for the byte-slab class.
func (a *Arena) newByteSlab(n int) []byte {
	if n == a.slabSize*4 && len(a.freeB) > 0 {
		s := a.freeB[len(a.freeB)-1]
		a.freeB = a.freeB[:len(a.freeB)-1]
		return s
	}
	if a.backend == BackendMmap {
		if b := mmapSlab(n); b != nil {
			a.mapped = append(a.mapped, b)
			return b
		}
	}
	return make([]byte, n)
}

// Reset retires every slab: standard-size slabs are zeroed onto the
// free lists for the next build cycle, oversize heap slabs drop to the
// garbage collector (oversize mmap slabs stay mapped until Release).
// The caller asserts nothing allocated from the arena is still live —
// recycled memory is handed out again by subsequent Allocs.
func (a *Arena) Reset() {
	for _, s := range a.slabs {
		if len(s) == a.slabSize {
			clear(s)
			a.freeF = append(a.freeF, s)
		}
	}
	for _, s := range a.bslabs {
		if len(s) == a.slabSize*4 {
			clear(s)
			a.freeB = append(a.freeB, s)
		}
	}
	a.slabs, a.bslabs = nil, nil
	a.cur, a.bcur = nil, nil
	a.off, a.boff = 0, 0
}

// Release unmaps every mmap-backed slab and drops all heap slabs and
// free lists. The caller asserts nothing allocated from the arena is
// still referenced anywhere: touching a released mmap-backed slice
// faults. A heap-backend arena may skip Release entirely — the garbage
// collector reclaims it — so only code paths that know their arena's
// lifetime (shard teardown, tests) need to call it.
func (a *Arena) Release() {
	for _, m := range a.mapped {
		munmapSlab(m)
	}
	a.mapped = nil
	a.slabs, a.bslabs = nil, nil
	a.freeF, a.freeB = nil, nil
	a.cur, a.bcur = nil, nil
	a.off, a.boff = 0, 0
}

// MmapSupported reports whether this platform can back slabs with mmap;
// when false, BackendMmap arenas silently use heap slabs.
func MmapSupported() bool { return mmapSupported }

// MappedBytes reports the address-space footprint of the arena's mmap
// regions (0 for heap-backend arenas and unsupported platforms).
func (a *Arena) MappedBytes() int {
	var n int
	for _, m := range a.mapped {
		n += len(m)
	}
	return n
}

// Alloc returns a zeroed float32 slice of length n carved from the arena.
// Allocations above the slab size get a dedicated slab.
func (a *Arena) Alloc(n int) []float32 {
	if n < 0 {
		panic(fmt.Sprintf("arena: negative allocation %d", n))
	}
	if n == 0 {
		return nil
	}
	if n >= a.slabSize {
		s := a.newFloatSlab(n)
		a.slabs = append(a.slabs, s)
		return s
	}
	if a.cur == nil || a.off+n > len(a.cur) {
		a.cur = a.newFloatSlab(a.slabSize)
		a.slabs = append(a.slabs, a.cur)
		a.off = 0
	}
	s := a.cur[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// AllocAligned is Alloc with the start padded to a cache-line boundary.
func (a *Arena) AllocAligned(n int) []float32 {
	if rem := a.off % floatsPerLine; rem != 0 && a.cur != nil {
		pad := floatsPerLine - rem
		if a.off+pad <= len(a.cur) {
			a.off += pad
		}
	}
	return a.Alloc(n)
}

// AllocRows returns rows of rowLen float32s each, densely packed back to
// back in cache-line-aligned chunks.
func (a *Arena) AllocRows(rows, rowLen int) [][]float32 {
	if rows < 0 || rowLen < 0 {
		panic("arena: negative AllocRows shape")
	}
	out := make([][]float32, rows)
	if rows == 0 {
		return out
	}
	// Allocate in chunks so one giant layer still lands in few slabs
	// without forcing a single slab of rows*rowLen floats.
	rowsPerChunk := a.slabSize / max(rowLen, 1)
	if rowsPerChunk < 1 {
		rowsPerChunk = 1
	}
	for base := 0; base < rows; base += rowsPerChunk {
		n := min(rowsPerChunk, rows-base)
		chunk := a.AllocAligned(n * rowLen)
		for r := 0; r < n; r++ {
			out[base+r] = chunk[r*rowLen : (r+1)*rowLen : (r+1)*rowLen]
		}
	}
	return out
}

// allocBytes returns a zeroed cache-line-aligned byte slice of length n
// from the byte-slab class. Byte slabs hold the same byte budget as the
// float slabs (slabSize*4).
func (a *Arena) allocBytes(n int) []byte {
	if n < 0 {
		panic(fmt.Sprintf("arena: negative allocation %d", n))
	}
	if n == 0 {
		return nil
	}
	byteSlab := a.slabSize * 4
	if n >= byteSlab {
		s := a.newByteSlab(n)
		a.bslabs = append(a.bslabs, s)
		return s
	}
	if rem := a.boff % CacheLineBytes; rem != 0 && a.bcur != nil {
		if pad := CacheLineBytes - rem; a.boff+pad <= len(a.bcur) {
			a.boff += pad
		}
	}
	if a.bcur == nil || a.boff+n > len(a.bcur) {
		a.bcur = a.newByteSlab(byteSlab)
		a.bslabs = append(a.bslabs, a.bcur)
		a.boff = 0
	}
	s := a.bcur[a.boff : a.boff+n : a.boff+n]
	a.boff += n
	return s
}

// AllocUint16 returns a zeroed cache-line-aligned []uint16 of length n —
// the backing store for BF16 weight mirrors.
func (a *Arena) AllocUint16(n int) []uint16 {
	b := a.allocBytes(n * 2)
	if b == nil {
		return nil
	}
	return unsafe.Slice((*uint16)(unsafe.Pointer(&b[0])), n)
}

// AllocInt8 returns a zeroed cache-line-aligned []int8 of length n — the
// backing store for int8 weight mirrors.
func (a *Arena) AllocInt8(n int) []int8 {
	b := a.allocBytes(n)
	if b == nil {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&b[0])), n)
}

// AllocUint32 returns a zeroed cache-line-aligned []uint32 of length n —
// the backing store for flat hash-table id slabs and per-row code memos.
func (a *Arena) AllocUint32(n int) []uint32 {
	b := a.allocBytes(n * 4)
	if b == nil {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}

// AllocInt32 returns a zeroed cache-line-aligned []int32 of length n — the
// backing store for flat bucket occupancy counters.
func (a *Arena) AllocInt32(n int) []int32 {
	b := a.allocBytes(n * 4)
	if b == nil {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
}

// Slabs reports how many distinct heap blocks back the arena — the
// Table 4 analogue of the hugepage mapping count.
func (a *Arena) Slabs() int { return len(a.slabs) + len(a.bslabs) }

// Floats reports the total float32 capacity currently owned by the arena.
func (a *Arena) Floats() int {
	var n int
	for _, s := range a.slabs {
		n += len(s)
	}
	return n
}
