// Package arena provides a slab allocator for float32 parameter state.
//
// Instead of one small heap object per neuron (many pointer targets, rows
// scattered over the heap), an Arena packs a network's weights and biases
// into a handful of large contiguous, cache-line-aligned slabs and hands
// out row views over them: the GC has few objects to track and none to
// scan, rows owned by different writers never share a cache line, and a
// layer's rows sit back to back. The sparse trainer's Adam moments are not
// arena memory: core keeps a weight's moments in bfloat16 slabs of their
// own, allocated at a network's first step, so a network that only serves
// never holds them. The dense baseline takes its float32 moments here, as
// AllocRows rows beside its weights.
//
// It is not the paper's Transparent Hugepages optimization (§5.4, App. D,
// Table 4). A slab is ordinary heap memory in 4 KiB pages: nothing here
// asks the kernel for huge pages, so where THP is set to madvise — the
// common default — a training process holds no huge pages at all
// (AnonHugePages 0 kB), and where it is set to always, the kernel may
// back slabs with them whatever this package does.
//
// Slabs are ordinary pointer-free Go heap allocations: the garbage
// collector reclaims them with the last slice carved from them, so an
// arena has no release step and may be dropped once construction is done.
package arena

import "fmt"

// CacheLineBytes is the alignment granule of AllocAligned and AllocRows,
// so buffers owned by different writers never share a cache
// line (the false-sharing opportunity App. D describes).
const CacheLineBytes = 64

const (
	floatsPerLine = CacheLineBytes / 4
	// slabFloats is the slab size: 1<<22 float32s, 16 MiB, a "huge page"
	// scale slab. A heap object that large is page aligned, so offsets
	// rounded to floatsPerLine are cache-line aligned addresses.
	slabFloats = 1 << 22
)

// Arena allocates float32 slices out of large slabs.
type Arena struct {
	cur []float32
	off int
}

// New returns an empty arena with 16 MiB slabs.
func New() *Arena { return &Arena{} }

// AllocAligned returns a zeroed float32 slice of length n starting on a
// cache-line boundary, carved from the arena's current slab. Allocations
// of a slab's size or more get a dedicated slab.
func (a *Arena) AllocAligned(n int) []float32 {
	if n < 0 {
		panic(fmt.Sprintf("arena: negative allocation %d", n))
	}
	if n == 0 {
		return nil
	}
	if n >= slabFloats {
		return make([]float32, n)
	}
	a.off = (a.off + floatsPerLine - 1) &^ (floatsPerLine - 1)
	if a.cur == nil || a.off+n > len(a.cur) {
		a.cur, a.off = make([]float32, slabFloats), 0
	}
	s := a.cur[a.off : a.off+n : a.off+n]
	a.off += n
	return s
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
	rowsPerChunk := max(slabFloats/max(rowLen, 1), 1)
	for base := 0; base < rows; base += rowsPerChunk {
		n := min(rowsPerChunk, rows-base)
		chunk := a.AllocAligned(n * rowLen)
		for r := 0; r < n; r++ {
			out[base+r] = chunk[r*rowLen : (r+1)*rowLen : (r+1)*rowLen]
		}
	}
	return out
}
