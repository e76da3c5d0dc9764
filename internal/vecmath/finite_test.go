package vecmath

import (
	"math"
	"testing"
)

// allFinite reports whether x holds no NaN or ±Inf.
func allFinite(x []float32) bool {
	for _, v := range x {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// TestAllFiniteMatchesGo: AllFinite answers as the Go kernel and the
// reference check do at every shape, and one NaN or ±Inf is found in any
// lane of a vector block, in a later call's span, and in the Go tail.
func TestAllFiniteMatchesGo(t *testing.T) {
	r := newPCG(23)
	kernelShapes(func(n, off int) {
		x := offsetCopy(mixedVec(r, n), off)
		if r.Intn(2) == 0 {
			for k := range x {
				if !allFinite(x[k : k+1]) {
					x[k] = 1
				}
			}
		}
		if got, want := AllFinite(x), allFinite(x); got != want || finiteGo(x) != want {
			t.Fatalf("n=%d off=%d: AllFinite %v (Go kernel %v), want %v", n, off, got, finiteGo(x), want)
		}
	})
	for _, n := range []int{77, maxCells + 13} {
		x := make([]float32, n)
		for k := range x {
			x[k] = math.MaxFloat32
		}
		for k := range x {
			for _, bits := range []uint32{0x7f800000, 0xff800000, 0x7fc00000, 0xff800001} {
				keep := x[k]
				x[k] = math.Float32frombits(bits)
				if AllFinite(x) {
					t.Fatalf("n=%d: %#x at cell %d reported finite", n, bits, k)
				}
				x[k] = keep
			}
		}
		if !AllFinite(x) {
			t.Fatalf("n=%d: ±MaxFloat32 row reported non-finite", n)
		}
	}
}

// TestAllFiniteFlagsEachCell: a NaN or ±Inf in any one cell of a row of
// nine vector blocks and a five-cell tail is found, and the row restored
// is finite again.
func TestAllFiniteFlagsEachCell(t *testing.T) {
	const n = 77
	x := make([]float32, n)
	for k := range x {
		x[k] = float32(k + 1)
	}
	bad := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for k := range x {
		keep := x[k]
		x[k] = bad[k%len(bad)]
		if AllFinite(x) {
			t.Fatalf("cell %d = %v: reported a finite row", k, x[k])
		}
		x[k] = keep
		if !AllFinite(x) {
			t.Fatalf("cell %d restored: reported a non-finite row", k)
		}
	}
}

// TestAllFiniteClassifiesBitPatterns: the answer turns on the exponent
// field alone. Every NaN — quiet or signalling, either sign, any payload —
// and both infinities are flagged; the largest finite magnitudes, the
// normal/subnormal boundary and the smallest subnormal are not, whatever
// lane or tail cell the value lands in, as the Go kernel answers.
func TestAllFiniteClassifiesBitPatterns(t *testing.T) {
	const n = 77 // nine vector blocks and a five-cell tail
	for _, tc := range []struct {
		name   string
		bits   uint32
		finite bool
	}{
		{"max", 0x7f7fffff, true},
		{"-max", 0xff7fffff, true},
		{"smallest normal", 0x00800000, true},
		{"largest subnormal", 0x007fffff, true},
		{"smallest subnormal", 0x00000001, true},
		{"-smallest subnormal", 0x80000001, true},
		{"+Inf", 0x7f800000, false},
		{"-Inf", 0xff800000, false},
		{"quiet NaN", 0x7fc00000, false},
		{"signalling NaN", 0x7f800001, false},
		{"negative NaN", 0xffc00000, false},
		{"NaN full payload", 0x7fffffff, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := make([]float32, n)
			for k := range x {
				for i := range x {
					x[i] = float32(i + 1)
				}
				x[k] = math.Float32frombits(tc.bits)
				if got, goGot := AllFinite(x), finiteGo(x); got != tc.finite || goGot != tc.finite {
					t.Fatalf("cell %d: finite %v (Go kernel %v), want %v", k, got, goGot, tc.finite)
				}
			}
		})
	}
}
