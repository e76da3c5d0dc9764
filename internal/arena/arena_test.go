package arena

import (
	"testing"
	"unsafe"
)

func TestAllocZeroedAndSized(t *testing.T) {
	a := New(1 << 16)
	s := a.Alloc(100)
	if len(s) != 100 {
		t.Fatalf("len = %d", len(s))
	}
	for i, v := range s {
		if v != 0 {
			t.Fatalf("slot %d not zeroed: %v", i, v)
		}
	}
	if got := a.Alloc(0); got != nil {
		t.Fatalf("Alloc(0) = %v", got)
	}
}

func TestAllocNoAliasing(t *testing.T) {
	a := New(1 << 16)
	x := a.Alloc(64)
	y := a.Alloc(64)
	for i := range x {
		x[i] = 1
	}
	for i, v := range y {
		if v != 0 {
			t.Fatalf("allocation aliasing at %d: %v", i, v)
		}
	}
}

func TestAllocCapacityClamped(t *testing.T) {
	a := New(1 << 16)
	x := a.Alloc(10)
	// Appending must not bleed into the next allocation's space.
	y := a.Alloc(10)
	x = append(x, 99)
	if y[0] != 0 {
		t.Fatal("append to earlier allocation overwrote later one")
	}
}

func TestLargeAllocGetsOwnSlab(t *testing.T) {
	a := New(1 << 16)
	before := a.Slabs()
	s := a.Alloc(1 << 20)
	if len(s) != 1<<20 {
		t.Fatalf("large alloc len %d", len(s))
	}
	if a.Slabs() != before+1 {
		t.Fatalf("large alloc did not take a dedicated slab")
	}
}

func TestAllocAlignedStartsOnCacheLine(t *testing.T) {
	a := New(1 << 16)
	a.Alloc(3) // misalign the cursor
	s := a.AllocAligned(8)
	// The returned slice must start at a multiple of 16 floats within
	// the slab; verified indirectly via the arena's offset math by
	// allocating again and checking no overlap.
	s2 := a.AllocAligned(8)
	s[7] = 1
	if s2[0] != 0 {
		t.Fatal("aligned allocations overlap")
	}
}

func TestAllocRowsShapeAndIsolation(t *testing.T) {
	a := New(1 << 16)
	rows := a.AllocRows(10, 33)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r) != 33 {
			t.Fatalf("row len = %d", len(r))
		}
	}
	// Writing one full row must not disturb any other.
	for i := range rows[4] {
		rows[4][i] = 7
	}
	for j, r := range rows {
		if j == 4 {
			continue
		}
		for i, v := range r {
			if v != 0 {
				t.Fatalf("row %d slot %d dirtied: %v", j, i, v)
			}
		}
	}
}

func TestAllocRowsChunksLargeLayers(t *testing.T) {
	a := New(1 << 16) // 64K floats per slab
	rows := a.AllocRows(100, 2048)
	if len(rows) != 100 {
		t.Fatalf("rows = %d", len(rows))
	}
	rows[99][2047] = 5
	if rows[98][2047] != 0 {
		t.Fatal("chunked rows overlap")
	}
	if a.Slabs() < 3 {
		t.Fatalf("expected multiple slabs for 200K floats in 64K slabs, got %d", a.Slabs())
	}
}

func TestFloatsAccounting(t *testing.T) {
	a := New(1 << 16)
	a.Alloc(10)
	if a.Floats() != 1<<16 {
		t.Fatalf("Floats = %d, want one slab of %d", a.Floats(), 1<<16)
	}
}

func TestNegativeAllocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(-1) did not panic")
		}
	}()
	New(0).Alloc(-1)
}

func TestAllocUint16ZeroedAligned(t *testing.T) {
	a := New(1 << 16)
	a.AllocInt8(3) // misalign the byte cursor
	s := a.AllocUint16(100)
	if len(s) != 100 {
		t.Fatalf("len = %d", len(s))
	}
	for i, v := range s {
		if v != 0 {
			t.Fatalf("slot %d not zeroed: %v", i, v)
		}
	}
	if addr := uintptr(unsafe.Pointer(&s[0])); addr%CacheLineBytes != 0 {
		t.Fatalf("uint16 allocation not cache-line aligned: %#x", addr)
	}
	if got := a.AllocUint16(0); got != nil {
		t.Fatalf("AllocUint16(0) = %v", got)
	}
}

func TestAllocInt8NoAliasing(t *testing.T) {
	a := New(1 << 16)
	x := a.AllocInt8(64)
	y := a.AllocInt8(64)
	for i := range x {
		x[i] = 1
	}
	for i, v := range y {
		if v != 0 {
			t.Fatalf("int8 allocation aliasing at %d: %v", i, v)
		}
	}
	if addr := uintptr(unsafe.Pointer(&y[0])); addr%CacheLineBytes != 0 {
		t.Fatalf("int8 allocation not cache-line aligned: %#x", addr)
	}
}

func TestByteSlabsCountedInSlabs(t *testing.T) {
	a := New(1 << 16)
	before := a.Slabs()
	a.AllocUint16(10)
	if a.Slabs() != before+1 {
		t.Fatalf("byte slab not counted: %d -> %d", before, a.Slabs())
	}
	// A huge quantized allocation takes a dedicated byte slab.
	mid := a.Slabs()
	s := a.AllocInt8(1 << 20)
	if len(s) != 1<<20 {
		t.Fatalf("large int8 alloc len %d", len(s))
	}
	if a.Slabs() != mid+1 {
		t.Fatal("large int8 alloc did not take a dedicated slab")
	}
	// Float accounting is unaffected by byte slabs.
	if a.Floats() != 0 {
		t.Fatalf("Floats = %d after byte-only allocations", a.Floats())
	}
}
