package arena

import (
	"testing"
	"unsafe"
)

// addr is the address of s's first element.
func addr(s []float32) uintptr { return uintptr(unsafe.Pointer(&s[0])) }

func TestAllocZeroedAndSized(t *testing.T) {
	a := New()
	s := a.AllocAligned(100)
	if len(s) != 100 {
		t.Fatalf("len = %d", len(s))
	}
	for i, v := range s {
		if v != 0 {
			t.Fatalf("slot %d not zeroed: %v", i, v)
		}
	}
	if got := a.AllocAligned(0); got != nil {
		t.Fatalf("AllocAligned(0) = %v", got)
	}
}

func TestAllocNoAliasing(t *testing.T) {
	a := New()
	x := a.AllocAligned(64)
	y := a.AllocAligned(64)
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
	a := New()
	x := a.AllocAligned(16)
	// Appending must not bleed into the next allocation's space.
	y := a.AllocAligned(16)
	x = append(x, 99)
	if y[0] != 0 {
		t.Fatal("append to earlier allocation overwrote later one")
	}
}

// TestLargeAllocGetsOwnSlab: an oversize allocation takes a dedicated
// slab and leaves the current slab's cursor where it was.
func TestLargeAllocGetsOwnSlab(t *testing.T) {
	a := New()
	x := a.AllocAligned(floatsPerLine)
	s := a.AllocAligned(slabFloats + 1)
	if len(s) != slabFloats+1 {
		t.Fatalf("large alloc len %d", len(s))
	}
	y := a.AllocAligned(floatsPerLine)
	if addr(y) != addr(x)+CacheLineBytes {
		t.Fatalf("allocation after an oversize one moved: %#x, want %#x", addr(y), addr(x)+CacheLineBytes)
	}
}

// TestAllocAlignedStartsOnCacheLine checks alignment by address: after a
// misaligning small allocation, after an oversize allocation, and at the
// start of every AllocRows chunk.
func TestAllocAlignedStartsOnCacheLine(t *testing.T) {
	aligned := func(t *testing.T, what string, s []float32) {
		t.Helper()
		if p := addr(s); p%CacheLineBytes != 0 {
			t.Fatalf("%s starts at %#x, not on a %d-byte line", what, p, CacheLineBytes)
		}
		for i, v := range s {
			if v != 0 {
				t.Fatalf("%s slot %d not zeroed: %v", what, i, v)
			}
		}
	}
	t.Run("after misaligning allocation", func(t *testing.T) {
		a := New()
		a.AllocAligned(3) // misalign the cursor
		aligned(t, "AllocAligned", a.AllocAligned(8))
	})
	t.Run("after oversize allocation", func(t *testing.T) {
		a := New()
		a.AllocAligned(5)
		a.AllocAligned(slabFloats + 3) // oversize: its own slab
		aligned(t, "AllocAligned", a.AllocAligned(8))
	})
	t.Run("every AllocRows chunk", func(t *testing.T) {
		a := New()
		// A short call lands mid-slab; a long one spans two chunks.
		for _, shape := range [][2]int{{10, 33}, {slabFloats/1001 + 7, 1001}} {
			a.AllocAligned(3)
			rows, rowLen := shape[0], shape[1]
			rs := a.AllocRows(rows, rowLen)
			if len(rs) != rows {
				t.Fatalf("rows = %d, want %d", len(rs), rows)
			}
			for base := 0; base < rows; base += slabFloats / rowLen {
				aligned(t, "AllocRows chunk", rs[base])
			}
		}
	})
}

func TestAllocRowsShapeAndIsolation(t *testing.T) {
	a := New()
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
	a := New()
	rowLen := slabFloats / 2
	rows := a.AllocRows(3, rowLen) // two rows per slab: 1.5 slabs
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	rows[2][rowLen-1] = 5
	if rows[1][rowLen-1] != 0 {
		t.Fatal("chunked rows overlap")
	}
	// Rows within a chunk are back to back, each capped at its length.
	if addr(rows[1]) != addr(rows[0])+uintptr(4*rowLen) {
		t.Fatal("rows within a chunk are not densely packed")
	}
	if cap(rows[0]) != rowLen {
		t.Fatalf("row capacity %d, want %d", cap(rows[0]), rowLen)
	}
}

func TestNegativeAllocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AllocAligned(-1) did not panic")
		}
	}()
	New().AllocAligned(-1)
}
