package vecmath

import (
	"flag"
	"fmt"
	"math"
	"os"
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
			if r.Intn(10) < 3 { // 30 % exact-zero gradients, either sign
				g[i] = specials[r.Intn(2)]
			}
		}
		p := adamParams{scale: 1 / float32(1+r.Intn(64)), b1: 0.9, omb1: 1 - float32(0.9), b2: 0.999, omb2: 1 - float32(0.999), eps: 1e-8, alpha: 1e-3}
		for _, skipZero := range []bool{false, true} {
			wantW, wantM, wantV := offsetCopy(w, 0), offsetCopy(m, 0), offsetCopy(v, 0)
			gotW, gotM, gotV := offsetCopy(w, (off+1)%8), offsetCopy(m, (off+2)%8), offsetCopy(v, (off+3)%8)
			want := adamStepGo(wantW, wantM, wantV, g, &p, skipZero)
			got := AdamStep(gotW, gotM, gotV, g, p.scale, p.b1, p.b2, p.eps, p.alpha, skipZero)
			if got != want {
				t.Fatalf("n=%d off=%d skipZero=%v: stepped %d cells, Go kernel %d", n, off, skipZero, got, want)
			}
			for name, pair := range map[string][2][]float32{"w": {gotW, wantW}, "m": {gotM, wantM}, "v": {gotV, wantV}} {
				if i := sameBits(pair[0], pair[1]); i >= 0 {
					t.Fatalf("n=%d off=%d skipZero=%v: %s[%d] = %v, Go kernel %v (g=%v)", n, off, skipZero, name, i, pair[0][i], pair[1][i], g[i])
				}
			}
		}
	})
}

// TestAdamStepSkipsExactZeros pins what skipZero means independently of
// the reference kernel: ±0 gradients leave w, m and v untouched and are
// not counted; without skipZero they decay the moments.
func TestAdamStepSkipsExactZeros(t *testing.T) {
	const n = 21
	w, m, v, g := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range w {
		w[i], m[i], v[i] = 1, 0.5, 0.25
		switch i % 3 {
		case 0:
			g[i] = 1
		case 1:
			g[i] = float32(math.Copysign(0, -1))
		}
	}
	if got := AdamStep(w, m, v, g, 1, 0.9, 0.999, 1e-8, 1e-3, true); got != 7 {
		t.Fatalf("stepped %d cells, want 7", got)
	}
	for i := range w {
		touched := w[i] != 1 || m[i] != 0.5 || v[i] != 0.25
		if touched != (i%3 == 0) {
			t.Fatalf("cell %d (g=%v): touched=%v", i, g[i], touched)
		}
	}
	if got := AdamStep(w, m, v, g, 1, 0.9, 0.999, 1e-8, 1e-3, false); got != n {
		t.Fatalf("stepped %d cells without skipZero, want %d", got, n)
	}
	if m[1] != 0.9*0.5 {
		t.Fatalf("zero-gradient cell's moment = %v after a full step, want decayed", m[1])
	}
}

func TestAdamStepShortRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a weight row shorter than the gradient")
		}
	}()
	AdamStep(make([]float32, 15), make([]float32, 16), make([]float32, 16), make([]float32, 16), 1, 0.9, 0.999, 1e-8, 1e-3, false)
}
