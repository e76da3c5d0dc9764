package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint32() == c.Uint32() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds produced %d/1000 equal draws", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewStream(7, 1)
	b := NewStream(7, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("streams with same seed produced %d/1000 equal draws", same)
	}
}

func TestReseedMatchesFreshConstruction(t *testing.T) {
	r := NewStream(42, 7)
	for i := 0; i < 137; i++ { // advance to an arbitrary position
		r.Uint32()
	}
	r.Reseed(42)
	fresh := NewStream(42, 7)
	for i := 0; i < 1000; i++ {
		if r.Uint64() != fresh.Uint64() {
			t.Fatalf("reseeded stream diverged from fresh construction at draw %d", i)
		}
	}
}

func TestReseedOnZeroValueMatchesNew(t *testing.T) {
	var r RNG
	r.Reseed(5)
	fresh := New(5)
	for i := 0; i < 100; i++ {
		if r.Uint64() != fresh.Uint64() {
			t.Fatalf("zero-value Reseed diverged from New at draw %d", i)
		}
	}
}

func TestReseedStreamReplacesStream(t *testing.T) {
	a := NewStream(1, 99) // construction-time stream should not matter
	a.Uint64()
	a.ReseedStream(42, 7)
	b := NewStream(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("ReseedStream diverged from NewStream at draw %d", i)
		}
	}
}

func TestSplitAdvancesParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("Split did not advance the parent stream")
	}
}

func TestIntnBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64, n int) bool {
		if n <= 0 {
			n = -n + 1
		}
		n = n%1000 + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(12345)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloatRanges(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		if f := r.Float32(); f < 0 || f >= 1 {
			t.Fatalf("Float32 out of [0,1): %v", f)
		}
	}
}

// TestNormFloat64Moments checks the mean and variance of NormFloat64 and
// of FillNormal32, which keeps both variates of each polar pair, and that
// the two variates of a pair are uncorrelated.
func TestNormFloat64Moments(t *testing.T) {
	const n = 200000
	single := make([]float64, n)
	r := New(99)
	for i := range single {
		single[i] = r.NormFloat64()
	}
	pair := make([]float32, n)
	New(99).FillNormal32(pair, 1)
	for _, c := range []struct {
		name string
		at   func(i int) float64
	}{
		{"NormFloat64", func(i int) float64 { return single[i] }},
		{"FillNormal32", func(i int) float64 { return float64(pair[i]) }},
	} {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := c.at(i)
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean) > 0.01 {
			t.Errorf("%s: normal mean = %v, want ~0", c.name, mean)
		}
		if math.Abs(variance-1) > 0.02 {
			t.Errorf("%s: normal variance = %v, want ~1", c.name, variance)
		}
	}
	// The sample correlation of n/2 independent pairs has standard error
	// sqrt(2/n) ≈ 0.0032; 0.015 is about 4.7 of them.
	var uv float64
	for i := 0; i < n; i += 2 {
		uv += float64(pair[i]) * float64(pair[i+1])
	}
	if rho := uv / (n / 2); math.Abs(rho) > 0.015 {
		t.Errorf("FillNormal32: correlation of a pair's two variates = %v, want ~0", rho)
	}
}

// TestFillNormal32MatchesNormFloat64 pins FillNormal32 to NormFloat64's
// arithmetic: on equal streams, the first variate of every pair is
// std·float32(NormFloat64()), an odd length ends on such a first variate,
// and both consume the same uniforms per pair.
func TestFillNormal32MatchesNormFloat64(t *testing.T) {
	for _, size := range []int{0, 1, 2, 7, 1000} {
		const std = 0.125
		dst := make([]float32, size)
		a, b := NewStream(5, 77), NewStream(5, 77)
		a.FillNormal32(dst, std)
		for i := 0; i < size; i += 2 {
			if want := std * float32(b.NormFloat64()); dst[i] != want {
				t.Fatalf("size %d: dst[%d] = %v, want %v", size, i, dst[i], want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("size %d: FillNormal32 and NormFloat64 consumed different draws", size)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		p := r.Perm(64)
		seen := make([]bool, 64)
		for _, v := range p {
			if v < 0 || v >= 64 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleKProperties(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%200 + 1
		k := int(kRaw) % (n + 1)
		r := New(seed)
		s := r.SampleK(n, k)
		if len(s) != k {
			return false
		}
		for i, v := range s {
			if v < 0 || v >= n {
				return false
			}
			if i > 0 && s[i-1] >= v {
				return false // must be strictly ascending (also implies unique)
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleKUniform(t *testing.T) {
	// Each element of [0, 20) should appear in a 5-sample with
	// probability 1/4.
	r := New(777)
	const n, k, trials = 20, 5, 40000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleK(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d sampled %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(3)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestShuffleCoversAllOrders(t *testing.T) {
	// 3 elements have 6 orders; all should appear.
	r := New(8)
	seen := map[[3]int]bool{}
	for i := 0; i < 600; i++ {
		a := [3]int{0, 1, 2}
		r.Shuffle(3, func(i, j int) { a[i], a[j] = a[j], a[i] })
		seen[a] = true
	}
	if len(seen) != 6 {
		t.Fatalf("saw %d/6 permutations", len(seen))
	}
}

func TestInt63n(t *testing.T) {
	r := New(11)
	for i := 0; i < 1000; i++ {
		v := r.Int63n(1 << 40)
		if v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}
