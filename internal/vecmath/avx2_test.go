package vecmath

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
)

// TestMain runs the package's tests twice on an AVX2 machine: as
// dispatched, then with the vector kernels off, so the Go kernels — the
// only path elsewhere — stay covered.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && hasAVX2 && flag.Lookup("test.bench").Value.String() == "" {
		fmt.Println("vecmath: second pass with hasAVX2 forced false")
		hasAVX2 = false
		code = m.Run()
	}
	os.Exit(code)
}

// The tests below compare each exported entry point (AVX2 blocks + Go tail
// where the machine has it) with its Go reference kernel bit for bit.

var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32, -math.MaxFloat32, 1e-30, 1e30, 1, -1,
}

// mixedVec draws n values: mostly N(0,1), one in eight a special (±0,
// subnormal, ±Inf, NaN, MaxFloat32, ...).
func mixedVec(r *pcg, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		if r.Intn(8) == 0 {
			v[i] = specials[r.Intn(len(specials))]
		} else {
			v[i] = r.NormFloat32()
		}
	}
	return v
}

// sameBits reports the first index where a and b differ in bits, two NaNs
// counting as equal (payloads are not promised), or -1.
func sameBits(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return i
		}
	}
	return -1
}

// offsetCopy returns a copy of v that starts off cells into its backing
// array, so kernels see every 32-byte misalignment.
func offsetCopy(v []float32, off int) []float32 {
	b := make([]float32, off+len(v))
	copy(b[off:], v)
	return b[off:]
}

// kernelShapes calls f for every length 0–300 (every tail) at backing-array
// offsets 0–7, plus lengths that span the per-call bound.
func kernelShapes(f func(n, off int)) {
	for n := 0; n <= 300; n++ {
		f(n, n%8)
		f(n, (n+3)%8)
	}
	for off := 0; off < 8; off++ {
		f(64+off, off)
	}
	for _, n := range []int{maxCells, maxCells + 8, maxCells + 13, 2*maxCells + 5} {
		f(n, 1)
	}
}

func TestAxpyMatchesGoBitwise(t *testing.T) {
	r := newPCG(11)
	kernelShapes(func(n, off int) {
		alpha := mixedVec(r, 1)[0]
		x := offsetCopy(mixedVec(r, n), off)
		y := mixedVec(r, n)
		want := offsetCopy(y, 0)
		got := offsetCopy(y, (off+5)%8)
		axpyUnrolled(alpha, x, want)
		Axpy(alpha, x, got)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("n=%d off=%d alpha=%v: cell %d = %x, Go kernel %x", n, off, alpha, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	})
}

// TestAxpyRowsMatchesAxpy: AxpyRows is one Axpy per term in term order,
// bit for bit, at every width 1–300 (every 64-cell block, 8-cell block and
// tail combination), over term lists short and past the per-call bound,
// with a row repeated within a call, rows longer than dst and misaligned
// operands, and special values in coefficients and rows alike.
func TestAxpyRowsMatchesAxpy(t *testing.T) {
	r := newPCG(16)
	const nRows = 37
	check := func(n, nTerms int) {
		rows := make([][]float32, nRows)
		for j := range rows {
			rows[j] = offsetCopy(mixedVec(r, n+j%3), j%8)
		}
		terms := make([]Term, nTerms)
		for k := range terms {
			terms[k] = Term{K: int32(r.Intn(nRows)), Coef: mixedVec(r, 1)[0]}
		}
		if nTerms >= 2 {
			terms[nTerms-1].K = terms[0].K
		}
		dst := mixedVec(r, n)
		want := offsetCopy(dst, 0)
		for _, tm := range terms {
			Axpy(tm.Coef, rows[tm.K][:n], want)
		}
		got := offsetCopy(dst, (n+5)%8)
		AxpyRows(got, rows, terms)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("n=%d terms=%d: cell %d = %x, one Axpy per term %x", n, nTerms, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	for n := 1; n <= 300; n++ {
		for _, nTerms := range []int{0, 1, 65, 300} {
			check(n, nTerms)
		}
	}
	for _, n := range []int{maxCells, maxCells + 13, 2*maxCells + 8} {
		check(n, 3)
	}
}

func TestAxpyRowsPanics(t *testing.T) {
	rows := [][]float32{make([]float32, 16), make([]float32, 12), make([]float32, 20)}
	dst := make([]float32, 16)
	for name, terms := range map[string][]Term{
		"term past the rows": {{K: 0}, {K: 3}},
		"negative term":      {{K: -1}},
		"short row":          {{K: 2}, {K: 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			AxpyRows(dst, rows, terms)
		}()
	}
}

func TestOuterAccMatchesGoBitwise(t *testing.T) {
	r := newPCG(12)
	kernelShapes(func(n, off int) {
		d := mixedVec(r, 1)[0]
		x, w := offsetCopy(mixedVec(r, n), off), offsetCopy(mixedVec(r, n), (off+1)%8)
		g, acc := mixedVec(r, n), mixedVec(r, n)
		wantG, wantAcc := offsetCopy(g, 0), offsetCopy(acc, 0)
		gotG, gotAcc := offsetCopy(g, (off+2)%8), offsetCopy(acc, (off+3)%8)
		outerAccUnrolled(d, x, w, wantG, wantAcc)
		OuterAcc(d, x, w, gotG, gotAcc)
		if i := sameBits(gotG, wantG); i >= 0 {
			t.Fatalf("n=%d off=%d d=%v: g[%d] = %v, Go kernel %v", n, off, d, i, gotG[i], wantG[i])
		}
		if i := sameBits(gotAcc, wantAcc); i >= 0 {
			t.Fatalf("n=%d off=%d d=%v: acc[%d] = %v, Go kernel %v", n, off, d, i, gotAcc[i], wantAcc[i])
		}
	})
}

func TestDotMatchesGoBitwise(t *testing.T) {
	r := newPCG(13)
	kernelShapes(func(n, off int) {
		// Finite data exercises the summation order (any other order
		// rounds differently); mixed data the special values.
		for _, gen := range []func(*pcg, int) []float32{randVec, mixedVec} {
			a, b := offsetCopy(gen(r, n), off), offsetCopy(gen(r, n), (off+3)%8)
			got, want := Dot(a, b), dotUnrolled(a, b)
			if sameBits([]float32{got}, []float32{want}) >= 0 {
				t.Fatalf("n=%d off=%d: Dot = %x, dotUnrolled %x", n, off, math.Float32bits(got), math.Float32bits(want))
			}
		}
	})
}

func TestDotRowsMatchesGoBitwise(t *testing.T) {
	r := newPCG(14)
	const nRows = 23
	for _, n := range []int{0, 1, 7, 8, 9, 64, 127, 128, 131, 300, maxCells, maxCells + 8} {
		rows := make([][]float32, nRows)
		for j := range rows {
			// Rows may be longer than x, and start anywhere.
			rows[j] = offsetCopy(randVec(r, n+j%3), j%8)
			if j%5 == 0 && n > 0 {
				rows[j][r.Intn(n)] = specials[r.Intn(len(specials))]
			}
		}
		x := offsetCopy(randVec(r, n), 5)
		for count := 0; count <= 9; count++ {
			// Unsorted ids with duplicates.
			ids := make([]int32, count)
			for k := range ids {
				ids[k] = int32(r.Intn(nRows))
			}
			if count >= 2 {
				ids[count-1] = ids[0]
			}
			check := func(name string, ids []int32) {
				got := make([]float32, count)
				DotRows(got, rows, ids, x)
				for k := range got {
					j := k
					if ids != nil {
						j = int(ids[k])
					}
					want := dotUnrolled(rows[j][:n], x)
					if sameBits(got[k:k+1], []float32{want}) >= 0 {
						t.Fatalf("n=%d count=%d %s: dst[%d] (row %d) = %x, dotUnrolled %x", n, count, name, k, j, math.Float32bits(got[k]), math.Float32bits(want))
					}
				}
			}
			check("ids", ids)
			check("nil ids", nil)
		}
	}
}

func TestDotRowsPanics(t *testing.T) {
	rows := [][]float32{make([]float32, 16), make([]float32, 16), make([]float32, 12), make([]float32, 16), make([]float32, 16)}
	x := make([]float32, 16)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("id past the rows", func() { DotRows(make([]float32, 4), rows, []int32{0, 1, 5, 3}, x) })
	mustPanic("negative id", func() { DotRows(make([]float32, 4), rows, []int32{0, -1, 1, 3}, x) })
	mustPanic("short row by id", func() { DotRows(make([]float32, 4), rows, []int32{0, 1, 3, 2}, x) })
	mustPanic("short row, nil ids", func() { DotRows(make([]float32, 5), rows, nil, x) })
	mustPanic("more outputs than rows", func() { DotRows(make([]float32, 6), rows[:2], nil, x) })
	mustPanic("ids/dst mismatch", func() { DotRows(make([]float32, 3), rows, []int32{0, 1}, x) })
}

func TestAdamStepMatchesGoBitwise(t *testing.T) {
	r := newPCG(15)
	kernelShapes(func(n, off int) {
		w, m := mixedVec(r, n), mixedVec(r, n)
		v, g := mixedVec(r, n), offsetCopy(mixedVec(r, n), off)
		for i := range v {
			if r.Intn(16) != 0 { // mostly a valid second moment; a few negative → NaN
				v[i] = float32(math.Abs(float64(v[i])))
			}
		}
		p := newAdamParams(1, 0.9, 0.999, 1e-8, 1e-3)
		wantW, wantM, wantV := offsetCopy(w, 0), offsetCopy(m, 0), offsetCopy(v, 0)
		gotW, gotM, gotV := offsetCopy(w, (off+1)%8), offsetCopy(m, (off+2)%8), offsetCopy(v, (off+3)%8)
		adamStepGo(wantW, wantM, wantV, g, &p)
		AdamStep(gotW, gotM, gotV, g, p.b1, p.b2, p.eps, p.alpha)
		for name, pair := range map[string][2][]float32{"w": {gotW, wantW}, "m": {gotM, wantM}, "v": {gotV, wantV}} {
			if i := sameBits(pair[0], pair[1]); i >= 0 {
				t.Fatalf("n=%d off=%d: %s[%d] = %v, Go kernel %v (g=%v)", n, off, name, i, pair[0][i], pair[1][i], g[i])
			}
		}
	})
}

// TestNarrowBF16Edges pins the rounding at its edges, at the dither's two
// extremes (0 truncates; 0xffff rounds away from zero whenever a dropped
// bit is set) and at 0x8000 (rounds half away from zero): the neighbours
// of a half, carries into the mantissa and the exponent, both signs, NaNs
// (one whose payload sits only in the dropped bits must not become Inf),
// ±Inf, the largest finite values rounding to Inf, subnormals and ±0.
func TestNarrowBF16Edges(t *testing.T) {
	for _, c := range []struct {
		in           uint32
		lo, half, hi uint16 // at dither 0, 0x8000 and 0xffff
	}{
		{0x3f800000, 0x3f80, 0x3f80, 0x3f80}, // 1: nothing dropped
		{0x3f808000, 0x3f80, 0x3f81, 0x3f81}, // half an ulp
		{0xbf808000, 0xbf80, 0xbf81, 0xbf81}, // the same, negative: away from zero
		{0x3f807fff, 0x3f80, 0x3f80, 0x3f81}, // just below a half
		{0x3f800001, 0x3f80, 0x3f80, 0x3f81}, // the least dropped bit
		{0x3f81ffff, 0x3f81, 0x3f82, 0x3f82}, // carries into the next mantissa
		{0x3fffffff, 0x3fff, 0x4000, 0x4000}, // carries into the exponent
		{0x7f800001, 0x7fc0, 0x7fc0, 0x7fc0}, // NaN with only the lowest payload bit
		{0xff807fff, 0xffc0, 0xffc0, 0xffc0}, // negative NaN, payload only in the dropped bits
		{0x7fc00000, 0x7fc0, 0x7fc0, 0x7fc0}, // quiet NaN
		{0x7fffffff, 0x7fff, 0x7fff, 0x7fff}, // NaN with every payload bit: no carry into the sign
		{0x7f810000, 0x7fc1, 0x7fc1, 0x7fc1}, // NaN whose payload survives, quieted
		{0x7f800000, 0x7f80, 0x7f80, 0x7f80}, // +Inf
		{0xff800000, 0xff80, 0xff80, 0xff80}, // -Inf
		{0x7f7fffff, 0x7f7f, 0x7f80, 0x7f80}, // MaxFloat32: the largest bfloat16 or +Inf
		{0xff7fffff, 0xff7f, 0xff80, 0xff80}, // and -MaxFloat32
		{0x7f7f0000, 0x7f7f, 0x7f7f, 0x7f7f}, // the largest bfloat16 itself
		{0x00000001, 0x0000, 0x0000, 0x0001}, // the smallest subnormal: +0 or the smallest bfloat16
		{0x00018000, 0x0001, 0x0002, 0x0002}, // a subnormal half
		{0x807fffff, 0x807f, 0x8080, 0x8080}, // the largest negative subnormal may round to a normal
		{0x00000000, 0x0000, 0x0000, 0x0000}, // +0
		{0x80000000, 0x8000, 0x8000, 0x8000}, // -0
	} {
		f := math.Float32frombits(c.in)
		for _, d := range []struct {
			d    uint32
			want uint16
		}{{0, c.lo}, {0x8000, c.half}, {0xffff, c.hi}} {
			if got := NarrowBF16(f, d.d); got != d.want {
				t.Errorf("NarrowBF16(%#08x, %#x) = %#04x, want %#04x", c.in, d.d, got, d.want)
			}
		}
	}
}

// TestBF16RoundTrip: widening is the 16-bit shift, and narrowing a widened
// value gives it back under any dither — every one of the 65,536 bit
// patterns, a NaN coming back as a NaN with the quiet bit set; any other
// value narrows to one of the two bfloat16 values around it.
func TestBF16RoundTrip(t *testing.T) {
	r := newPCG(21)
	for i := 0; i <= math.MaxUint16; i++ {
		h := uint16(i)
		f := WidenBF16(h)
		if math.Float32bits(f) != uint32(h)<<16 {
			t.Fatalf("WidenBF16(%#04x) = %#08x", h, math.Float32bits(f))
		}
		want := h
		if f != f {
			want |= 0x40
		}
		for _, d := range []uint32{0, 0xffff, r.Uint32() >> 16} {
			if got := NarrowBF16(f, d); got != want {
				t.Fatalf("NarrowBF16(WidenBF16(%#04x), %#x) = %#04x, want %#04x", h, d, got, want)
			}
		}
	}
	for n := 0; n < 100000; n++ {
		u := r.Uint32()
		if u&0x7fffffff >= 0x7f800000 {
			continue
		}
		lo := uint16(u >> 16)
		if got := NarrowBF16(math.Float32frombits(u), r.Uint32()>>16); got != lo && got != lo+1 {
			t.Fatalf("NarrowBF16(%#08x) = %#04x, want %#04x or %#04x", u, got, lo, lo+1)
		}
	}
}

// sameBF16 reports the first index where a and b differ in bits, two NaNs
// counting as equal, or -1.
func sameBF16(a, b []uint16) int {
	if len(a) != len(b) {
		return 0
	}
	isNaN := func(h uint16) bool { return h&0x7fff > 0x7f80 }
	for i := range a {
		if a[i] != b[i] && !(isNaN(a[i]) && isNaN(b[i])) {
			return i
		}
	}
	return -1
}

// bf16Moments narrows n mixed values (specials included) to moments; with
// abs, mostly non-negative ones, as a second moment is.
func bf16Moments(r *pcg, n int, abs bool) []uint16 {
	x := mixedVec(r, n)
	h := make([]uint16, n)
	for i := range x {
		if abs && r.Intn(16) != 0 {
			x[i] = float32(math.Abs(float64(x[i])))
		}
		h[i] = NarrowBF16(x[i], 0x8000)
	}
	return h
}

// TestAdamStepBF16MatchesGoBitwise: the dispatched bfloat16 step (vector
// blocks plus Go tail) ≡ its Go kernel bit for bit — w, both moments and
// the stepped count — at every length 0–130 and across the per-call
// bound, with a random dither key and a random mask of ±0 gradients
// (none, some, all) to skip.
func TestAdamStepBF16MatchesGoBitwise(t *testing.T) {
	r := newPCG(16)
	lengths := []int{maxCells + 13, 2*maxCells + 5}
	for n := 0; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, zeros := range []int{0, 3, 10} { // in ten: no, 30 % or every gradient ±0
			w, g := mixedVec(r, n), mixedVec(r, n)
			m, v := bf16Moments(r, n, false), bf16Moments(r, n, true)
			for i := range g {
				if r.Intn(10) < zeros || g[i] == 0 {
					g[i] = specials[r.Intn(2)]
				}
			}
			p := newAdamParams(1/float32(1+r.Intn(64)), 0.9, 0.999, 1e-8, 1e-3)
			key := r.Uint32()
			wantW, wantM, wantV := slices.Clone(w), slices.Clone(m), slices.Clone(v)
			want := adamStepBF16Go(wantW, wantM, wantV, g, key, 0, &p)
			got := AdamStepBF16(w, m, v, g, key, p.scale, p.b1, p.b2, p.eps, p.alpha)
			if got != want {
				t.Fatalf("n=%d zeros=%d/10: stepped %d cells, Go kernel %d", n, zeros, got, want)
			}
			if i := sameBits(w, wantW); i >= 0 {
				t.Fatalf("n=%d zeros=%d/10: w[%d] = %v, Go kernel %v (g=%v)", n, zeros, i, w[i], wantW[i], g[i])
			}
			for name, pair := range map[string][2][]uint16{"m": {m, wantM}, "v": {v, wantV}} {
				if i := sameBF16(pair[0], pair[1]); i >= 0 {
					t.Fatalf("n=%d zeros=%d/10: %s[%d] = %#04x, Go kernel %#04x (g=%v)", n, zeros, name, i, pair[0][i], pair[1][i], g[i])
				}
			}
		}
	}
}

// TestAdamStepBF16NarrowsLikeNarrowBF16: with b1 = b2 = 0 and scale 1 a
// stepped cell's new moments are its gradient and the gradient's square,
// so m holds the gradient and v the square as NarrowBF16 narrows them
// with the halves of Dither(key, column) — on every path, for every edge
// value TestNarrowBF16Edges pins that arithmetic can produce.
func TestAdamStepBF16NarrowsLikeNarrowBF16(t *testing.T) {
	var g []float32
	for _, u := range []uint32{
		0x3f808000, 0x3f818000, 0xbf808000, 0xbf818000, 0x3f807fff, 0x3f808001, 0x3fffffff,
		0x7fc00000, 0xffc00001, 0x7fffffff, 0x7fc10000, 0x7f800000, 0xff800000,
		0x7f7fffff, 0xff7fffff, 0x7f7f8000, 0x7f7f7fff, 0x00000001, 0x00008000,
		0x00008001, 0x00018000, 0x807fffff, 0x5f7fffff, 0x3fb504f3,
	} {
		g = append(g, math.Float32frombits(u))
	}
	for len(g)%8 != 5 { // whole vector blocks and a Go tail
		g = append(g, g[len(g)%20])
	}
	n := len(g)
	const key = 0x5eed1e55
	w, m, v := make([]float32, n), make([]uint16, n), make([]uint16, n)
	if got := AdamStepBF16(w, m, v, g, key, 1, 0, 0, 1e-8, 1e-3); got != n {
		t.Fatalf("stepped %d cells, want %d", got, n)
	}
	for i, gi := range g {
		d := Dither(key, i)
		for _, c := range []struct {
			name string
			x    float32
			got  uint16
			want uint16
		}{
			{"m", gi, m[i], NarrowBF16(gi, d&0xffff)},
			{"v", gi * gi, v[i], NarrowBF16(gi*gi, d>>16)},
		} {
			if c.x != c.x { // arithmetic returns a NaN quieted; its payload is not promised
				if c.got&0x7fff <= 0x7f80 {
					t.Fatalf("cell %d: %s=%#08x (NaN) stored %#04x, not a NaN", i, c.name, math.Float32bits(c.x), c.got)
				}
				continue
			}
			if c.got != c.want {
				t.Fatalf("cell %d: %s=%#08x stored %#04x, want %#04x", i, c.name, math.Float32bits(c.x), c.got, c.want)
			}
		}
	}
}

// TestDitherUnbiased: over a row's columns, under either half of Dither, a
// value rounds away from zero in the share of cells that equals the
// fraction of an ulp it drops, so the stored values average to it.
func TestDitherUnbiased(t *testing.T) {
	const cols = 1 << 16
	for _, key := range []uint32{0, 1, 0x9e3779b9, 0xdeadbeef} {
		for _, low := range []uint32{1, 0x0400, 0x4000, 0x8000, 0xc000, 0xff00} {
			u := 0x3f810000 | low
			var up [2]int
			for col := 0; col < cols; col++ {
				d := Dither(key, col)
				for half, dh := range []uint32{d & 0xffff, d >> 16} {
					if NarrowBF16(math.Float32frombits(u), dh) != 0x3f81 {
						up[half]++
					}
				}
			}
			want := float64(low) / 0x10000
			for half, n := range up {
				if got := float64(n) / cols; math.Abs(got-want) > 0.01 {
					t.Errorf("key %#x, half %d: %#08x rounded up in %.4f of %d columns, want %.4f", key, half, u, got, cols, want)
				}
			}
		}
	}
}

// TestAdamStepBF16MomentsTrack: stored moments follow their float32
// recurrences. Steps of β2 = 0.999 toward a g² below v move it by at most
// 0.1%, under half a bfloat16 ulp, so a round-to-nearest v would never
// fall; steps of β1 = 0.9 move m 10% of the way to g, so a round-to-nearest
// m would stall 2–4% short of it. Over 4,096 cells the dithered moments'
// means stay within 1% of the float32 ones through 1,000 steps at one
// gradient and 300 at a larger one.
func TestAdamStepBF16MomentsTrack(t *testing.T) {
	const n, b1, b2 = 4096, 0.9, 0.999
	r := newPCG(22)
	w, m, v, g := make([]float32, n), make([]uint16, n), make([]uint16, n), make([]float32, n)
	for i := range v {
		v[i] = NarrowBF16(1, 0)
	}
	wantM, wantV := float32(0), float32(1)
	mean := func(h []uint16) float64 {
		var sum float64
		for _, x := range h {
			sum += float64(WidenBF16(x))
		}
		return sum / n
	}
	for step := 0; step < 1300; step++ {
		gi := float32(0.1)
		if step >= 1000 {
			gi = 1
		}
		for i := range g {
			g[i] = gi
		}
		AdamStepBF16(w, m, v, g, r.Uint32(), 1, b1, b2, 1e-8, 1e-3)
		wantM = b1*wantM + (1-b1)*gi
		wantV = b2*wantV + (1-b2)*gi*gi
		if step%50 == 49 {
			if got := mean(m); math.Abs(got/float64(wantM)-1) > 0.01 {
				t.Fatalf("step %d: mean stored m %.5f, float32 moving average %.5f", step+1, got, wantM)
			}
			if got := mean(v); math.Abs(got/float64(wantV)-1) > 0.01 {
				t.Fatalf("step %d: mean stored v %.5f, float32 moving average %.5f", step+1, got, wantV)
			}
		}
	}
}

// TestAdamStepBF16SkipsExactZeros pins what the skip means independently
// of the reference kernel: ±0 gradients leave w, m and v untouched and are
// not counted; every other cell steps.
func TestAdamStepBF16SkipsExactZeros(t *testing.T) {
	const n = 21
	w, g := make([]float32, n), make([]float32, n)
	m, v := make([]uint16, n), make([]uint16, n)
	for i := range w {
		w[i], m[i], v[i] = 1, NarrowBF16(0.5, 0), NarrowBF16(0.25, 0)
		switch i % 3 {
		case 0:
			g[i] = 1
		case 1:
			g[i] = float32(math.Copysign(0, -1))
		}
	}
	if got := AdamStepBF16(w, m, v, g, 0, 1, 0.9, 0.999, 1e-8, 1e-3); got != 7 {
		t.Fatalf("stepped %d cells, want 7", got)
	}
	for i := range w {
		touched := w[i] != 1 || WidenBF16(m[i]) != 0.5 || WidenBF16(v[i]) != 0.25
		if touched != (i%3 == 0) {
			t.Fatalf("cell %d (g=%v): touched=%v", i, g[i], touched)
		}
	}
}

func TestAdamStepShortRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a weight row shorter than the gradient")
		}
	}()
	AdamStep(make([]float32, 15), make([]float32, 16), make([]float32, 16), make([]float32, 16), 0.9, 0.999, 1e-8, 1e-3)
}

func TestAdamStepBF16ShortMomentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a moment row shorter than the gradient")
		}
	}()
	AdamStepBF16(make([]float32, 16), make([]uint16, 16), make([]uint16, 15), make([]float32, 16), 0, 1, 0.9, 0.999, 1e-8, 1e-3)
}
