package vecmath

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/rng"
)

// packVec draws n cells for the row packers: mixedVec's values with about
// half the cells zeroed, and now and then a run of zeros or of nonzeros, so
// blocks of every mask byte occur.
func packVec(r *rng.RNG, n int) []float32 {
	v := mixedVec(r, n)
	for i := 0; i < n; i++ {
		switch r.Intn(16) {
		case 0:
			for j := i; j < min(i+9, n); j++ {
				v[j] = 0
			}
			i += 8
		case 1:
			i += 8
		default:
			if r.Intn(2) == 0 {
				v[i] = 0
			}
		}
	}
	return v
}

// TestPackNonZeroMatchesGo: the packed values and mask equal packGo's,
// CountNonZero counts the values packed, and unpacking them restores every
// cell, ±0 as +0, whatever the slack after the values and the alignment of
// either side.
func TestPackNonZeroMatchesGo(t *testing.T) {
	r := rng.New(21)
	kernelShapes(func(n, off int) {
		x := offsetCopy(packVec(r, n), off)
		wantDst, wantMask := make([]byte, 4*n), make([]byte, MaskLen(n))
		wantN := packGo(wantDst, wantMask, x)
		dst, mask := make([]byte, 4*n+off)[off:], make([]byte, MaskLen(n))
		for i := range mask {
			mask[i] = 0xa5 // every mask byte must be written
		}
		if got := PackNonZero(dst, mask, x); got != wantN || !bytes.Equal(dst[:got], wantDst[:wantN]) || !bytes.Equal(mask, wantMask) {
			t.Fatalf("n=%d off=%d: packed %d bytes, mask %x; Go kernel %d bytes, mask %x", n, off, got, mask, wantN, wantMask)
		}
		if got := CountNonZero(x); got != wantN/4 {
			t.Fatalf("n=%d off=%d: CountNonZero %d, want %d", n, off, got, wantN/4)
		}
		for _, slack := range []int{0, 3, 31, 64} {
			src := offsetBytes(append(wantDst[:wantN:wantN], make([]byte, slack)...), (off+slack)%8)
			y := offsetCopy(mixedVec(r, n), (off+3)%8)
			if got := UnpackNonZero(y, mask, src); got != wantN {
				t.Fatalf("n=%d off=%d slack=%d: read %d bytes, want %d", n, off, slack, got, wantN)
			}
			for k := range x {
				want := x[k]
				if want == 0 {
					want = 0 // -0 travels as +0
				}
				if math.Float32bits(y[k]) != math.Float32bits(want) && !(y[k] != y[k] && want != want) {
					t.Fatalf("n=%d off=%d slack=%d: cell %d = %x, want %x", n, off, slack, k, math.Float32bits(y[k]), math.Float32bits(want))
				}
			}
		}
	})
}

// offsetBytes returns a copy of b that starts off bytes into its backing
// array.
func offsetBytes(b []byte, off int) []byte {
	c := make([]byte, off+len(b))
	copy(c[off:], b)
	return c[off:]
}
