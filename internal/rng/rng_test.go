package rng

import (
	"math"
	"slices"
	"sort"
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
// and both consume the same uniforms per pair. Widths 0–130 cover the
// 64-pair batch, its seam and the transform's quad tails.
func TestFillNormal32MatchesNormFloat64(t *testing.T) {
	for stream := uint64(0); stream < 100; stream++ {
		for size := 0; size <= 130; size++ {
			const std = 0.125
			dst := make([]float32, size)
			a, b := NewStream(5, 77+stream), NewStream(5, 77+stream)
			a.FillNormal32(dst, std)
			for i := 0; i < size; i += 2 {
				if want := std * float32(b.NormFloat64()); dst[i] != want {
					t.Fatalf("stream %d size %d: dst[%d] = %v, want %v", stream, size, i, dst[i], want)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("stream %d size %d: FillNormal32 and NormFloat64 consumed different draws", stream, size)
			}
		}
	}
	dst := make([]float32, 1000)
	a, b := NewStream(5, 77), NewStream(5, 77)
	a.FillNormal32(dst, 0.125)
	for i := 0; i < len(dst); i += 2 {
		if want := 0.125 * float32(b.NormFloat64()); dst[i] != want {
			t.Fatalf("size 1000: dst[%d] = %v, want %v", i, dst[i], want)
		}
	}
}

// fillNormal32Scalar is FillNormal32 one pair at a time, as it was written
// before the transform was batched: the reference for both variates.
func fillNormal32Scalar(r *RNG, dst []float32, std float32) {
	for i := 0; i < len(dst); {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		dst[i] = std * float32(u*f)
		if i+1 == len(dst) {
			return
		}
		dst[i+1] = std * float32(v*f)
		i += 2
	}
}

// TestFillNormal32MatchesScalar pins every variate, both of each pair,
// bit for bit to the scalar fill, over widths 0–130 on 100 streams and at
// the row widths the network fills.
func TestFillNormal32MatchesScalar(t *testing.T) {
	sizes := []int{255, 256, 1000, 4097}
	for size := 0; size <= 130; size++ {
		sizes = append(sizes, size)
	}
	for stream := uint64(0); stream < 100; stream++ {
		for _, size := range sizes {
			std := float32(math.Sqrt(2.0 / float64(size+1)))
			got, want := make([]float32, size), make([]float32, size)
			a, b := NewStream(stream, 0x1a7e4+stream), NewStream(stream, 0x1a7e4+stream)
			a.FillNormal32(got, std)
			fillNormal32Scalar(b, want, std)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("stream %d size %d: [%d] = %v, want %v", stream, size, i, got[i], want[i])
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("stream %d size %d: consumed different draws", stream, size)
			}
		}
	}
}

// TestFillNormFloat32MatchesNormFloat32 pins the first-variate fill to
// len(dst) calls of std·NormFloat32(), bits and draws.
func TestFillNormFloat32MatchesNormFloat32(t *testing.T) {
	for stream := uint64(0); stream < 100; stream++ {
		for _, size := range []int{0, 1, 2, 3, 4, 5, 63, 64, 65, 127, 128, 130, 1000} {
			const std = 0.0883883461356163 // √(1/128)
			got := make([]float32, size)
			a, b := NewStream(9, stream), NewStream(9, stream)
			a.FillNormFloat32(got, std)
			for i := range got {
				if want := std * b.NormFloat32(); math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("stream %d size %d: [%d] = %v, want %v", stream, size, i, got[i], want)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("stream %d size %d: consumed different draws", stream, size)
			}
		}
	}
}

func TestFillNormalAllocatesNothing(t *testing.T) {
	r := New(1)
	dst := make([]float32, 300)
	if n := testing.AllocsPerRun(20, func() {
		r.FillNormal32(dst, 1)
		r.FillNormFloat32(dst, 1)
	}); n != 0 {
		t.Fatalf("%v allocations per fill", n)
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

// sampleKSet is SampleK as it was written before its picks were kept
// sorted: Floyd's algorithm over a set, then a sort.
func sampleKSet(r *RNG, n, k int) []int {
	if k == 0 {
		return nil
	}
	if k*4 >= n {
		p := r.Perm(n)[:k]
		sort.Ints(p)
		return p
	}
	chosen := make(map[int]struct{}, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			chosen[j] = struct{}{}
		} else {
			chosen[t] = struct{}{}
		}
	}
	out := make([]int, 0, k)
	for v := range chosen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// TestSampleKMatchesSet pins SampleK and SampleKInto (with a reused
// buffer) to the set-based Floyd sample: the same picks from the same
// draws, on both branches.
func TestSampleKMatchesSet(t *testing.T) {
	var buf []int
	for seed := uint64(0); seed < 20; seed++ {
		for _, n := range []int{0, 1, 2, 3, 7, 16, 40, 100, 1000, 23477} {
			for _, k := range []int{0, 1, 2, 3, 5, 10, 17, 24, 60, 250, 999} {
				if k > n {
					continue
				}
				a, b, c := New(seed), New(seed), New(seed)
				want := sampleKSet(a, n, k)
				if got := b.SampleK(n, k); !slices.Equal(got, want) {
					t.Fatalf("SampleK(%d, %d) = %v, want %v", n, k, got, want)
				}
				buf = c.SampleKInto(buf, n, k)
				if !slices.Equal(buf, want) {
					t.Fatalf("SampleKInto(%d, %d) = %v, want %v", n, k, buf, want)
				}
				if x := a.Uint64(); b.Uint64() != x || c.Uint64() != x {
					t.Fatalf("n %d k %d: consumed different draws", n, k)
				}
			}
		}
	}
	r := New(1)
	buf = r.SampleKInto(nil, 100, 50)
	if n := testing.AllocsPerRun(20, func() {
		buf = r.SampleKInto(buf, 100, 50)
		buf = r.SampleKInto(buf, 23477, 10)
	}); n != 0 {
		t.Fatalf("SampleKInto with a reused buffer: %v allocations", n)
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

// BenchmarkFillNormal32 fills 3.0M weights in 128-wide rows, each from
// its own reseeded stream, as a layer's weight init does on one worker.
func BenchmarkFillNormal32(b *testing.B) {
	row := make([]float32, 128)
	var r RNG
	for range b.N {
		for i := range 3_000_000 / 128 {
			r.ReseedStream(1, uint64(i)+0x1a7e4)
			r.FillNormal32(row, 0.125)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*3_000_000), "ns/weight")
}
