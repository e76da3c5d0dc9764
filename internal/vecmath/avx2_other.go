//go:build !amd64

package vecmath

// No vector kernels off amd64: the Go kernels are the only path, and the
// stubs below exist only so the dispatching wrappers compile.
var hasAVX2 = false

// prefetchT0 is Prefetch's hint, which has no instruction here.
func prefetchT0(p *float32, n int) {}

func axpyAVX2(alpha float32, x, y *float32, blocks int) { panic("vecmath: no AVX2") }

func axpyRowsAVX2(dst *float32, rows *[]float32, terms *Term, nterms, col, blocks int) {
	panic("vecmath: no AVX2")
}

func outerAccAVX2(d float32, x, w, grad, acc *float32, blocks int) { panic("vecmath: no AVX2") }

func dot4AVX2(x, r0, r1, r2, r3 *float32, blocks int, out *[4]float32) { panic("vecmath: no AVX2") }

func adamAVX2(w, m, v, grad *float32, blocks int, p *adamParams, skipZero bool) (skipped int) {
	panic("vecmath: no AVX2")
}

func signedSumsAVX2(x *float32, ent *uint32, steps, groups int, dst *float32) {
	panic("vecmath: no AVX2")
}

func argMaxAVX2(x *float32, ent *uint32, steps, groups int, dst *uint32) { panic("vecmath: no AVX2") }

func finiteAVX2(x *float32, blocks int) (ok bool) { panic("vecmath: no AVX2") }

func polarFactorsAVX2(f, s *float64, quads int) { panic("vecmath: no AVX2") }

func transpose8AVX2(xt, rows *float32, dim, tiles int) { panic("vecmath: no AVX2") }

func signedSumsBlockAVX2(xt *float32, ent *uint32, steps, groups int, dst *float32) {
	panic("vecmath: no AVX2")
}

func argMaxBlockAVX2(xt *float32, ent *uint32, steps, groups int, dst *uint32) (empty bool) {
	panic("vecmath: no AVX2")
}

func packAddrsAVX2(dst *uint32, stride int, codes *uint32, k, tables, bits int) {
	panic("vecmath: no AVX2")
}

func mixAddrsAVX2(dst *uint32, stride int, codes *uint32, k, t0, tables int, seed uint64, mask uint32) {
	panic("vecmath: no AVX2")
}
