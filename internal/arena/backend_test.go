package arena

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// carve runs one fixed allocation/write program against an arena and
// returns every value written, in order — the probe both backends must
// agree on bitwise.
func carve(a *Arena) []uint32 {
	r := rng.New(123)
	var out []uint32
	touch := func(s []float32) {
		for i := range s {
			s[i] = r.NormFloat32()
			out = append(out, math.Float32bits(s[i]))
		}
	}
	touch(a.Alloc(100))
	touch(a.AllocAligned(33))
	for _, row := range a.AllocRows(17, 129) {
		touch(row)
	}
	touch(a.Alloc(a.slabSize + 1)) // oversize: dedicated slab
	q := a.AllocUint16(257)
	for i := range q {
		q[i] = uint16(r.Intn(1 << 16))
		out = append(out, uint32(q[i]))
	}
	b := a.AllocInt8(129)
	for i := range b {
		b[i] = int8(r.Intn(256) - 128)
		out = append(out, uint32(uint8(b[i])))
	}
	return out
}

// TestMmapBackendBitTransparent is the acceptance check for the mmap
// slab backend: the same allocation program run against a heap arena
// and an mmap arena yields bitwise-identical contents, layouts that
// respect the same alignment rules, and reads back intact.
func TestMmapBackendBitTransparent(t *testing.T) {
	heap := New(1 << 16)
	heap.backend = BackendHeap // pin: SLIDE_ARENA=mmap must not flip the reference arena
	mm := New(1 << 16)
	mm.backend = BackendMmap
	defer mm.Release()

	hw := carve(heap)
	mw := carve(mm)
	if len(hw) != len(mw) {
		t.Fatalf("write counts differ: %d vs %d", len(hw), len(mw))
	}
	for i := range hw {
		if hw[i] != mw[i] {
			t.Fatalf("write %d differs: %#x vs %#x", i, hw[i], mw[i])
		}
	}
	if MmapSupported() {
		if mm.MappedBytes() == 0 {
			t.Fatal("mmap backend mapped nothing on a supported platform")
		}
	} else if mm.MappedBytes() != 0 {
		t.Fatal("unsupported platform reported mapped bytes")
	}
	if heap.MappedBytes() != 0 {
		t.Fatal("heap backend reported mapped bytes")
	}
	if heap.Slabs() != mm.Slabs() {
		t.Fatalf("slab counts differ: heap %d, mmap %d", heap.Slabs(), mm.Slabs())
	}
}

func TestMmapAllocationsZeroedAndAligned(t *testing.T) {
	a := New(1 << 16)
	a.backend = BackendMmap
	defer a.Release()
	a.Alloc(3)
	s := a.AllocAligned(64)
	for i, v := range s {
		if v != 0 {
			t.Fatalf("slot %d not zeroed: %v", i, v)
		}
	}
	if addr := uintptr(unsafe.Pointer(&s[0])); addr%CacheLineBytes != 0 {
		t.Fatalf("aligned alloc at %#x", addr)
	}
	q := a.AllocUint16(10)
	if addr := uintptr(unsafe.Pointer(&q[0])); addr%CacheLineBytes != 0 {
		t.Fatalf("uint16 alloc at %#x", addr)
	}
}

// TestResetRecyclesSlabs: after Reset, the next build cycle reuses the
// retired standard-size slabs (no new mappings, zeroed contents).
func TestResetRecyclesSlabs(t *testing.T) {
	a := New(1 << 16)
	a.backend = BackendMmap
	defer a.Release()
	s := a.Alloc(1000)
	for i := range s {
		s[i] = 1
	}
	a.AllocUint16(100)
	mapped := a.MappedBytes()
	a.Reset()
	if a.MappedBytes() != mapped {
		t.Fatalf("Reset changed mapping footprint: %d -> %d", mapped, a.MappedBytes())
	}
	s2 := a.Alloc(1000)
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("recycled slab slot %d not zeroed: %v", i, v)
		}
	}
	if a.MappedBytes() != mapped {
		t.Fatalf("recycle allocated a fresh mapping: %d -> %d", mapped, a.MappedBytes())
	}
	if MmapSupported() && mapped == 0 {
		t.Fatal("expected mmap-backed slabs on a supported platform")
	}
}

func TestReleaseUnmapsAndArenaStaysUsable(t *testing.T) {
	a := New(1 << 16)
	a.backend = BackendMmap
	a.Alloc(100)
	a.Release()
	if a.MappedBytes() != 0 || a.Slabs() != 0 {
		t.Fatalf("Release left %d mapped bytes, %d slabs", a.MappedBytes(), a.Slabs())
	}
	s := a.Alloc(50)
	s[49] = 1
	a.Release()
}

func TestSetBackendDefault(t *testing.T) {
	prev := SetBackend(BackendMmap)
	defer SetBackend(prev)
	if DefaultBackend() != BackendMmap {
		t.Fatal("SetBackend did not take")
	}
	a := NewDefault()
	if a.backend != BackendMmap {
		t.Fatal("NewDefault ignored the default backend")
	}
	if got := SetBackend(prev); got != BackendMmap {
		t.Fatalf("SetBackend returned %v, want mmap", got)
	}
}
