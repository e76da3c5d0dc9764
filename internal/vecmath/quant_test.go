package vecmath

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestBF16RoundTripExact: values already representable in bfloat16 (8
// mantissa bits) must survive the encode/decode round trip bit-for-bit.
func TestBF16RoundTripExact(t *testing.T) {
	for _, v := range []float32{0, 1, -1, 0.5, -0.375, 2, 96, -1024, 1.0 / 256,
		float32(math.Inf(1)), float32(math.Inf(-1))} {
		if got := F32FromBF16(BF16FromF32(v)); got != v {
			t.Fatalf("round trip of %v gave %v", v, got)
		}
	}
	// Negative zero keeps its sign bit.
	nz := float32(math.Copysign(0, -1))
	if got := F32FromBF16(BF16FromF32(nz)); math.Signbit(float64(got)) != true {
		t.Fatalf("-0 lost its sign: %v", got)
	}
}

// TestBF16RoundToNearestEven pins the rounding rule on exact-tie bit
// patterns: a tie (low 16 bits = 0x8000) rounds to the neighbor whose
// retained mantissa is even, both when that means rounding up and down.
func TestBF16RoundToNearestEven(t *testing.T) {
	cases := []struct {
		bits uint32
		want uint16
	}{
		// 0x3f80_8000: tie above 1.0 (stored mantissa even) — rounds down.
		{0x3f808000, 0x3f80},
		// 0x3f81_8000: tie above 1.0078125 (stored mantissa odd) — rounds up.
		{0x3f818000, 0x3f82},
		// Just below / above the tie round toward the nearer neighbor.
		{0x3f817fff, 0x3f81},
		{0x3f818001, 0x3f82},
	}
	for _, c := range cases {
		if got := BF16FromF32(math.Float32frombits(c.bits)); got != c.want {
			t.Fatalf("BF16FromF32(%#08x) = %#04x, want %#04x", c.bits, got, c.want)
		}
	}
}

// TestBF16NaNQuieted: NaNs must stay NaN through the conversion — naive
// rounding can carry a signalling NaN's payload into the exponent and
// produce an infinity.
func TestBF16NaNQuieted(t *testing.T) {
	for _, bits := range []uint32{
		0x7fc00000, // canonical quiet NaN
		0x7f800001, // signalling NaN with tiny payload (rounds to Inf if not special-cased)
		0xffbfffff, // negative NaN, payload all ones below the quiet bit
	} {
		h := BF16FromF32(math.Float32frombits(bits))
		back := F32FromBF16(h)
		if !math.IsNaN(float64(back)) {
			t.Fatalf("NaN %#08x converted to %v (bits %#04x)", bits, back, h)
		}
	}
}

// TestBF16RelativeErrorBound: random finite values must decode within the
// format's 2⁻⁸ relative error.
func TestBF16RelativeErrorBound(t *testing.T) {
	r := rng.New(5)
	for i := 0; i < 10000; i++ {
		v := r.NormFloat32() * float32(math.Pow(2, float64(r.Intn(21)-10)))
		back := F32FromBF16(BF16FromF32(v))
		if err := math.Abs(float64(back - v)); err > math.Abs(float64(v))/256+1e-30 {
			t.Fatalf("bf16(%v) = %v, relative error %v", v, back, err/math.Abs(float64(v)))
		}
	}
}
