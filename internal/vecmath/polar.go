package vecmath

import "math"

// The Marsaglia polar transform, batched: a generator that has drawn n
// accepted pairs (u, v) with s = u² + v² in (0, 1) gets the factors
// f = √(−2·ln s / s) of its normal variates u·f and v·f from one
// PolarFactors call. The Go path is that expression with math.Log; the
// AVX2 path runs four pairs at a time and is bit-identical to it on
// amd64, where math.Log is log_amd64.s's archLog: a frexp by bit
// operations and plain double multiplies, adds and divides, never FMA,
// which four-lane VMULPD/VADDPD/VDIVPD reproduce lane by lane (see
// avx2_amd64.s).

// maxPolar bounds the pairs one assembly call covers (a few µs of
// non-preemptible work).
const maxPolar = 512

// PolarFactors sets f[i] = √(−2·ln s[i] / s[i]) for s[i] in (0, 1), as
// math.Sqrt(-2*math.Log(s)/s) computes it. f may be s; len(f) must be
// len(s).
func PolarFactors(f, s []float64) {
	if len(f) != len(s) {
		panic("vecmath: PolarFactors length mismatch")
	}
	done := 0
	if hasAVX2 {
		for n4 := len(s) &^ 3; done < n4; {
			c := min(n4-done, maxPolar)
			polarFactorsAVX2(&f[done], &s[done], c/4)
			done += c
		}
	}
	for i := done; i < len(s); i++ {
		f[i] = math.Sqrt(-2 * math.Log(s[i]) / s[i])
	}
}
