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

// allFinite reports whether x holds no NaN or ±Inf.
func allFinite(x []float32) bool {
	for _, v := range x {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// TestPackNonZeroMatchesGo: the packed values and mask equal packGo's,
// CountNonZero counts the values packed, and unpacking them restores every
// cell, ±0 as +0, and reports whether any is NaN or ±Inf, whatever the
// slack after the values and the alignment of either side. Half the rows
// have their non-finite cells replaced, so both answers occur at every
// shape.
func TestPackNonZeroMatchesGo(t *testing.T) {
	r := rng.New(21)
	kernelShapes(func(n, off int) {
		x := offsetCopy(packVec(r, n), off)
		if r.Intn(2) == 0 {
			for k := range x {
				if !allFinite(x[k : k+1]) {
					x[k] = 1
				}
			}
		}
		wantFinite := allFinite(x)
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
			if got, finite := UnpackNonZero(y, mask, src); got != wantN || finite != wantFinite {
				t.Fatalf("n=%d off=%d slack=%d: read %d bytes, finite %v; want %d, %v", n, off, slack, got, finite, wantN, wantFinite)
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

// TestUnpackNonZeroFlagsEachCell: one NaN, +Inf or -Inf among finite
// values is reported wherever it sits — every lane of a vector block and
// the Go tail — and a finite row after it is not.
func TestUnpackNonZeroFlagsEachCell(t *testing.T) {
	const n = 77 // nine vector blocks and a five-cell tail
	x := make([]float32, n)
	for k := range x {
		x[k] = float32(k + 1)
	}
	bad := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	dst, mask, y := make([]byte, 4*n+32), make([]byte, MaskLen(n)), make([]float32, n)
	for k := range x {
		keep := x[k]
		x[k] = bad[k%len(bad)]
		got := PackNonZero(dst, mask, x)
		if _, finite := UnpackNonZero(y, mask, dst[:got+32]); finite {
			t.Fatalf("cell %d = %v: unpack reported a finite row", k, x[k])
		}
		x[k] = keep
		got = PackNonZero(dst, mask, x)
		if _, finite := UnpackNonZero(y, mask, dst[:got+32]); !finite {
			t.Fatalf("cell %d restored: unpack reported a non-finite row", k)
		}
	}
}

// TestUnpackNonZeroClassifiesBitPatterns: the finite answer turns on the
// exponent field alone. Every NaN — quiet or signalling, either sign, any
// payload — and both infinities are flagged; the largest finite
// magnitudes, the normal/subnormal boundary and the smallest subnormal
// are not. Whatever lane or tail cell the value lands in, it is restored
// bit for bit and the answer matches the Go kernel's.
func TestUnpackNonZeroClassifiesBitPatterns(t *testing.T) {
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
			dst, mask := make([]byte, 4*n+32), make([]byte, MaskLen(n))
			y, yGo := make([]float32, n), make([]float32, n)
			for k := range x {
				for i := range x {
					x[i] = float32(i + 1)
				}
				x[k] = math.Float32frombits(tc.bits)
				got := PackNonZero(dst, mask, x)
				read, finite := UnpackNonZero(y, mask, dst[:got+32])
				readGo, finiteGo := unpackGo(yGo, mask, dst[:got])
				if read != got || finite != tc.finite || readGo != got || finiteGo != tc.finite {
					t.Fatalf("cell %d: read %d bytes, finite %v (Go kernel %d, %v); want %d, %v", k, read, finite, readGo, finiteGo, got, tc.finite)
				}
				if b := math.Float32bits(y[k]); b != tc.bits || math.Float32bits(yGo[k]) != tc.bits {
					t.Fatalf("cell %d restored as %#x (Go kernel %#x), want %#x", k, b, math.Float32bits(yGo[k]), tc.bits)
				}
			}
		})
	}
}

// offsetBytes returns a copy of b that starts off bytes into its backing
// array.
func offsetBytes(b []byte, off int) []byte {
	c := make([]byte, off+len(b))
	copy(c[off:], b)
	return c[off:]
}
