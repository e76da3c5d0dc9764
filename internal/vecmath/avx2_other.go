//go:build !amd64

package vecmath

// No vector kernels off amd64: the Go kernels are the only path, and the
// stubs below exist only so the dispatching wrappers compile.
var hasAVX2 = false

func axpyAVX2(alpha float32, x, y *float32, blocks int) { panic("vecmath: no AVX2") }

func outerAccAVX2(d float32, x, w, grad, acc *float32, blocks int) { panic("vecmath: no AVX2") }

func dot4AVX2(x, r0, r1, r2, r3 *float32, blocks int, out *[4]float32) { panic("vecmath: no AVX2") }

func adamAVX2(w, m, v, grad *float32, blocks int, p *adamParams, skipZero bool) (skipped int) {
	panic("vecmath: no AVX2")
}

func signedSumsAVX2(x *float32, ent *uint32, steps, groups int, dst *float32) {
	panic("vecmath: no AVX2")
}

func argMaxAVX2(x *float32, ent *uint32, steps, groups int, dst *uint32) { panic("vecmath: no AVX2") }

func packAVX2(dst, mask *byte, x *float32, blocks int, perm *[256][8]uint32) (n int) {
	panic("vecmath: no AVX2")
}

func unpackAVX2(x *float32, mask, src *byte, blocks, srcLen int, perm *[256][8]uint32) (done, n int, nonFinite bool) {
	panic("vecmath: no AVX2")
}

func countAVX2(x *float32, blocks int) (n int) { panic("vecmath: no AVX2") }
