package vecmath

// hasAVX2 reports whether the AVX2 row kernels may run: the CPU has AVX2
// (and POPCNT, which the Adam kernel's stepped count uses) and the OS
// saves YMM state. Set once at init; read only by this package's exported
// entry points (tests flip it to cover the Go kernels on an AVX2 machine).
var hasAVX2 = detectAVX2()

// detectAVX2 is golang.org/x/sys/cpu's AVX2 check, hand-rolled because the
// module has no dependencies.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM registers.
	if eax, _ := xgetbv0(); eax&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// prefetchT0 is Prefetch's hint, on every amd64: PREFETCHT0 is baseline
// SSE, not AVX2.
//
//go:noescape
func prefetchT0(p *float32, n int)

// The kernels below take whole 8-cell blocks (blocks = cells/8) and do no
// checking of their own; see avx2_amd64.s.

//go:noescape
func axpyAVX2(alpha float32, x, y *float32, blocks int)

//go:noescape
func axpyRowsAVX2(dst *float32, rows *[]float32, terms *Term, nterms, col, blocks int)

//go:noescape
func outerAccAVX2(d float32, x, w, grad, acc *float32, blocks int)

//go:noescape
func dot4AVX2(x, r0, r1, r2, r3 *float32, blocks int, out *[4]float32)

//go:noescape
func adamAVX2(w, m, v, grad *float32, blocks int, p *adamParams, skipZero bool) (skipped int)

//go:noescape
func signedSumsAVX2(x *float32, ent *uint32, steps, groups int, dst *float32)

//go:noescape
func argMaxAVX2(x *float32, ent *uint32, steps, groups int, dst *uint32)

//go:noescape
func finiteAVX2(x *float32, blocks int) (ok bool)

//go:noescape
func polarFactorsAVX2(f, s *float64, quads int)

// The block kernels (block.go) take whole groups of eight functions, or
// eight lanes of codes, and do no checking of their own.

//go:noescape
func transpose8AVX2(xt, rows *float32, dim, tiles int)

//go:noescape
func signedSumsBlockAVX2(xt *float32, ent *uint32, steps, groups int, dst *float32)

//go:noescape
func argMaxBlockAVX2(xt *float32, ent *uint32, steps, groups int, dst *uint32) (empty bool)

//go:noescape
func packAddrsAVX2(dst *uint32, stride int, codes *uint32, k, tables, bits int)

//go:noescape
func mixAddrsAVX2(dst *uint32, stride int, codes *uint32, k, t0, tables int, seed uint64, mask uint32)
