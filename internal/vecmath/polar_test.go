package vecmath

import (
	"math"
	"testing"
)

// polarS lists s values for the polar tests: in every binade a polar pair
// can reach, 2^-104 (u and v are multiples of 2^-52) to 2^-1, the binade's
// ends, random mantissas, and the mantissas on and ±1, ±2 ulp around √2/2,
// where archLog takes k−1 and doubles the fraction; then 1−2^-53.
func polarS(r *pcg) []float64 {
	var s []float64
	for e := -104; e <= -1; e++ {
		lo := math.Ldexp(1, e)
		s = append(s, lo, math.Nextafter(2*lo, 0))
		mid := math.Ldexp(math.Sqrt2/2, e+1)
		s = append(s, mid,
			math.Nextafter(mid, 0), math.Nextafter(math.Nextafter(mid, 0), 0),
			math.Nextafter(mid, 1), math.Nextafter(math.Nextafter(mid, 1), 1))
		for range 5 {
			s = append(s, lo*(1+r.Float64()))
		}
	}
	return append(s, math.Nextafter(1, 0))
}

func TestPolarFactorsMatchLog(t *testing.T) {
	s := polarS(newPCG(1))
	want := make([]float64, len(s))
	for i, x := range s {
		want[i] = math.Sqrt(-2 * math.Log(x) / x)
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 9, 63, 64, 65, len(s) - 1, len(s)} {
		for _, off := range []int{0, 1, 3} {
			if off+n > len(s) {
				continue
			}
			f := make([]float64, n)
			PolarFactors(f, s[off:off+n])
			for i := range f {
				if math.Float64bits(f[i]) != math.Float64bits(want[off+i]) {
					t.Fatalf("n %d off %d: s %v (%#x): f %v, want %v", n, off, s[off+i], math.Float64bits(s[off+i]), f[i], want[off+i])
				}
			}
		}
	}
	inPlace := append([]float64(nil), s...)
	PolarFactors(inPlace, inPlace)
	for i := range inPlace {
		if math.Float64bits(inPlace[i]) != math.Float64bits(want[i]) {
			t.Fatalf("in place: s %v: f %v, want %v", s[i], inPlace[i], want[i])
		}
	}
}

func TestPolarLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on a length mismatch")
		}
	}()
	PolarFactors(make([]float64, 3), make([]float64, 4))
}
