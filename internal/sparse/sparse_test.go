package sparse

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewSortsAndValidates(t *testing.T) {
	v, err := New(10, []int32{5, 1, 3}, []float32{5, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < v.NNZ(); j++ {
		if v.Idx[j-1] >= v.Idx[j] {
			t.Fatalf("indices not ascending: %v", v.Idx)
		}
	}
	if _, err := New(4, []int32{4}, []float32{1}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := New(4, []int32{-1}, []float32{1}); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := New(4, []int32{0, 1}, []float32{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestNewMergesDuplicates(t *testing.T) {
	v, err := New(10, []int32{2, 2, 5}, []float32{1, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if v.NNZ() != 2 || v.Val[0] != 4 || v.Idx[0] != 2 {
		t.Fatalf("duplicates not merged: %+v", v)
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		d := make([]float32, 32)
		for i := range d {
			if r.Bernoulli(0.3) {
				d[i] = r.NormFloat32()
			}
		}
		v := FromDense(d)
		back := v.Dense()
		for i := range d {
			if d[i] != back[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotMatchesDense(t *testing.T) {
	r := rng.New(4)
	d := make([]float32, 64)
	w := make([]float32, 64)
	for i := range d {
		if r.Bernoulli(0.25) {
			d[i] = r.NormFloat32()
		}
		w[i] = r.NormFloat32()
	}
	v := FromDense(d)
	var want float64
	for i := range d {
		want += float64(d[i]) * float64(w[i])
	}
	if got := float64(v.Dot(w)); math.Abs(got-want) > 1e-4 {
		t.Fatalf("Dot = %v, want %v", got, want)
	}
}

func TestSparsityAndNorm(t *testing.T) {
	v := MustNew(100, []int32{0, 1}, []float32{3, 4})
	if v.NNZ() != 2 || v.Sparsity() != 0.02 {
		t.Fatalf("NNZ/Sparsity wrong: %d %v", v.NNZ(), v.Sparsity())
	}
	if math.Abs(v.Norm2()-5) > 1e-6 {
		t.Fatalf("Norm2 = %v", v.Norm2())
	}
}

func TestCloneIsDeep(t *testing.T) {
	v := MustNew(4, []int32{1}, []float32{2})
	c := v.Clone()
	c.Val[0] = 99
	if v.Val[0] != 2 {
		t.Fatal("Clone aliases original storage")
	}
}

// TestTopKMatchesSort: TopK must agree with a full sort under the same tie
// rule.
func TestTopKMatchesSort(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%64 + 1
		k := int(kRaw)%n + 1
		r := rng.New(seed)
		d := make([]float32, n)
		for i := range d {
			d[i] = float32(r.Intn(10)) // ties likely
		}
		got := TopK(d, k)
		ord := make([]int32, n)
		for i := range ord {
			ord[i] = int32(i)
		}
		sort.SliceStable(ord, func(a, b int) bool {
			if d[ord[a]] != d[ord[b]] {
				return d[ord[a]] > d[ord[b]]
			}
			return ord[a] < ord[b]
		})
		if len(got) != k {
			return false
		}
		for i := range got {
			if got[i] != ord[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestViewAliasesOrNormalizes: well-formed component lists become
// zero-copy views; anything unsorted, duplicated or out of range falls
// back to New's copying normalization.
func TestViewAliasesOrNormalizes(t *testing.T) {
	idx := []int32{1, 4, 9}
	val := []float32{1, 2, 3}
	v, err := View(16, idx, val)
	if err != nil {
		t.Fatal(err)
	}
	if &v.Idx[0] != &idx[0] || &v.Val[0] != &val[0] {
		t.Fatal("View copied well-formed components")
	}
	v, err = View(16, []int32{9, 4, 1}, []float32{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.Idx[0] != 1 || v.Val[0] != 1 || v.Idx[2] != 9 {
		t.Fatalf("unsorted View not normalized: %v/%v", v.Idx, v.Val)
	}
	if _, err := View(4, []int32{1, 9}, []float32{1, 2}); err == nil {
		t.Fatal("View accepted out-of-range index")
	}
	if _, err := View(4, []int32{1}, nil); err == nil {
		t.Fatal("View accepted mismatched lengths")
	}
	v, err = View(8, []int32{2, 2}, []float32{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Idx) != 1 || v.Val[0] != 2 {
		t.Fatalf("duplicate indices not merged: %v/%v", v.Idx, v.Val)
	}
}

// TestSelectorReuseZeroAllocs pins the serving hot path's selection cost:
// once the Selector's heap and the output buffer cover k, repeated
// selections allocate nothing and keep agreeing with one-shot TopK.
func TestSelectorReuseZeroAllocs(t *testing.T) {
	r := rng.New(7)
	d := make([]float32, 4096)
	for i := range d {
		d[i] = float32(r.Intn(1000))
	}
	var s Selector
	out := make([]int32, 0, 32)
	out = s.TopKInto(out, d, 32)
	if want := TopK(d, 32); !sliceEq(out, want) {
		t.Fatalf("TopKInto %v != TopK %v", out, want)
	}
	allocs := testing.AllocsPerRun(50, func() {
		out = s.TopKInto(out, d, 32)
	})
	if allocs != 0 {
		t.Fatalf("reused Selector made %.0f allocs/op, want 0", allocs)
	}
}

func sliceEq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTopKEdgeCases(t *testing.T) {
	if got := TopK(nil, 3); len(got) != 0 {
		t.Fatalf("TopK(nil) = %v", got)
	}
	if got := TopK([]float32{1, 2}, 0); got != nil {
		t.Fatalf("TopK(k=0) = %v", got)
	}
	got := TopK([]float32{1, 2}, 10)
	if len(got) != 2 || got[0] != 1 {
		t.Fatalf("TopK overshoot = %v", got)
	}
}
