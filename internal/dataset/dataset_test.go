package dataset

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/vecmath"
)

func tinyProfile(seed uint64) Profile {
	return Profile{
		Name: "t", FeatureDim: 256, NumClasses: 64,
		TrainSize: 300, TestSize: 100,
		AvgFeatures: 12, AvgLabels: 2, ProtoNNZ: 8,
		NoiseFrac: 0.1, LabelSkew: 1.5, Seed: seed,
	}
}

func TestGenerateValidates(t *testing.T) {
	ds, err := Generate(tinyProfile(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ds.Train) != 300 || len(ds.Test) != 100 {
		t.Fatalf("split sizes %d/%d", len(ds.Train), len(ds.Test))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(tinyProfile(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(tinyProfile(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Train {
		if !reflect.DeepEqual(a.Train[i].Labels, b.Train[i].Labels) ||
			!reflect.DeepEqual(a.Train[i].Features.Idx, b.Train[i].Features.Idx) {
			t.Fatalf("example %d differs across equal-seed generations", i)
		}
	}
	c, err := Generate(tinyProfile(10))
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Train {
		if reflect.DeepEqual(a.Train[i].Labels, c.Train[i].Labels) {
			same++
		}
	}
	if same == len(a.Train) {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestStatsNearProfile(t *testing.T) {
	ds, err := Generate(tinyProfile(3))
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Stats()
	if s.AvgFeatures < 6 || s.AvgFeatures > 20 {
		t.Errorf("avg features %.1f far from profile 12", s.AvgFeatures)
	}
	if s.AvgLabels < 1 || s.AvgLabels > 3.5 {
		t.Errorf("avg labels %.1f far from profile 2", s.AvgLabels)
	}
	if s.FeatureSparsity <= 0 || s.FeatureSparsity > 0.2 {
		t.Errorf("sparsity %.4f implausible", s.FeatureSparsity)
	}
}

func TestExamplesAreUnitNorm(t *testing.T) {
	ds, err := Generate(tinyProfile(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Train[:20] {
		n := ds.Train[i].Features.Norm2()
		if math.Abs(n-1) > 1e-3 {
			t.Fatalf("example %d norm %v, want 1", i, n)
		}
	}
}

// TestLearnableStructure: examples sharing a label must overlap more in
// feature support than examples with disjoint labels — the property that
// makes the planted task learnable.
func TestLearnableStructure(t *testing.T) {
	ds, err := Generate(tinyProfile(7))
	if err != nil {
		t.Fatal(err)
	}
	overlap := func(a, b Example) float64 {
		set := map[int32]bool{}
		for _, i := range a.Features.Idx {
			set[i] = true
		}
		hits := 0
		for _, i := range b.Features.Idx {
			if set[i] {
				hits++
			}
		}
		return float64(hits) / float64(len(b.Features.Idx)+1)
	}
	shareLabel := func(a, b Example) bool {
		set := map[int32]bool{}
		for _, l := range a.Labels {
			set[l] = true
		}
		for _, l := range b.Labels {
			if set[l] {
				return true
			}
		}
		return false
	}
	var sameSum, diffSum float64
	var sameN, diffN int
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			o := overlap(ds.Train[i], ds.Train[j])
			if shareLabel(ds.Train[i], ds.Train[j]) {
				sameSum += o
				sameN++
			} else {
				diffSum += o
				diffN++
			}
		}
	}
	if sameN == 0 || diffN == 0 {
		t.Skip("degenerate label draw")
	}
	if sameSum/float64(sameN) <= diffSum/float64(diffN) {
		t.Fatalf("shared-label overlap %.3f <= disjoint %.3f; task not learnable",
			sameSum/float64(sameN), diffSum/float64(diffN))
	}
}

func TestScaleProfileBounds(t *testing.T) {
	p := Delicious200K(0.01, 1)
	if p.FeatureDim != 7825 || p.NumClasses != 2054 {
		t.Fatalf("scaled dims: %d features, %d classes", p.FeatureDim, p.NumClasses)
	}
	if p.AvgFeatures <= 0 || p.AvgLabels <= 0 || p.ProtoNNZ <= 0 {
		t.Fatalf("scaled counts non-positive: %+v", p)
	}
	full := Amazon670K(1, 1)
	if full.FeatureDim != 135909 || full.NumClasses != 670091 {
		t.Fatalf("paper dims wrong: %+v", full)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scale > 1 accepted")
		}
	}()
	Delicious200K(1.5, 1)
}

func TestGenerateRejectsBadProfiles(t *testing.T) {
	p := tinyProfile(1)
	p.FeatureDim = 0
	if _, err := Generate(p); err == nil {
		t.Error("zero FeatureDim accepted")
	}
	p = tinyProfile(1)
	p.AvgLabels = 0
	if _, err := Generate(p); err == nil {
		t.Error("zero AvgLabels accepted")
	}
}

func TestXCRoundTrip(t *testing.T) {
	ds, err := Generate(tinyProfile(11))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteXC(&buf, ds.Train[:50], ds.InputDim, ds.NumClasses); err != nil {
		t.Fatal(err)
	}
	back, nf, nl, err := ReadXC(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nf != ds.InputDim || nl != ds.NumClasses || len(back) != 50 {
		t.Fatalf("header %d/%d, %d examples", nf, nl, len(back))
	}
	for i := range back {
		if !reflect.DeepEqual(back[i].Labels, ds.Train[i].Labels) {
			t.Fatalf("example %d labels: %v != %v", i, back[i].Labels, ds.Train[i].Labels)
		}
		if !reflect.DeepEqual(back[i].Features.Idx, ds.Train[i].Features.Idx) {
			t.Fatalf("example %d indices differ", i)
		}
		for j := range back[i].Features.Val {
			if math.Abs(float64(back[i].Features.Val[j]-ds.Train[i].Features.Val[j])) > 1e-5 {
				t.Fatalf("example %d value %d differs", i, j)
			}
		}
	}
}

func TestReadXCErrors(t *testing.T) {
	cases := []string{
		"",                                  // empty
		"1 2",                               // short header
		"x 2 3\n",                           // bad count
		"1 10 5\n9 0:bad\n",                 // bad value
		"1 10 5\n7 0:1\n",                   // label out of range
		"1 10 5\n1 20:1\n",                  // feature out of range
		"1 10 5\n1 nocolon\n",               // bad token
		"-1 10 10\n",                        // negative example count
		"1 -10 5\n",                         // negative feature count
		"1 10 -5\n",                         // negative label count
		"1 10 5\n1 0:nan\n",                 // NaN value
		"1 10 5\n1 0:1 2:inf\n",             // +Inf value
		"1 10 5\n1 3:-Inf\n",                // -Inf value
		"1 10 5\n1 0:3e38 0:3e38\n",         // duplicate index summing past float32
		"1 10 5\n1 4294967297:1\n",          // index wrapping through int32 to 1
		"1 4294967298 5\n1 4294967297:1\n",  // feature count above 2^31
		"1 10 4294967298\n4294967297 0:1\n", // label count above 2^31
		"1 10 5\n1 -1:1\n",                  // negative index
		"1 10 5\n1,,2 0:1\n",                // empty label
		"1 10 5\n,\n",                       // label field of commas only
	}
	for i, c := range cases {
		if _, _, _, err := ReadXC(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

// TestReadXCHugeCountDoesNotPreallocate reads a header that declares 2^40
// examples followed by one: the count may not size the example slice.
func TestReadXCHugeCountDoesNotPreallocate(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	exs, _, _, err := ReadXC(strings.NewReader("1099511627776 10 5\n1 0:1\n"))
	runtime.ReadMemStats(&after)
	if err != nil || len(exs) != 1 {
		t.Fatalf("got %d examples, err %v; want 1", len(exs), err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<20 {
		t.Fatalf("reading one example allocated %d bytes", grown)
	}
}

// FuzzReadXC feeds arbitrary bytes to ReadXC: it may refuse them but not
// panic, and what it accepts must be valid — indices and labels in range,
// values finite — and survive WriteXC and a second ReadXC unchanged.
func FuzzReadXC(f *testing.F) {
	var buf bytes.Buffer
	ds, err := Generate(tinyProfile(4))
	if err != nil {
		f.Fatal(err)
	}
	if err := WriteXC(&buf, ds.Train[:3], ds.InputDim, ds.NumClasses); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("2 10 5\n1,3 0:1.5 4:-2\n 9:1e-3\n")
	f.Add("1 10 5\n4,0,4 2:1 2:3 1:0\n")
	f.Add("-1 10 10\n")
	f.Add("1 10 5\n1 0:nan\n")
	f.Add("1 10 5\n1 4294967297:1\n")
	f.Add("1 10 5\n,\n")
	f.Fuzz(func(t *testing.T, in string) {
		exs, nf, nl, err := ReadXC(strings.NewReader(in))
		if err != nil {
			return
		}
		d := &Dataset{InputDim: nf, NumClasses: nl, Train: exs}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted invalid data: %v", err)
		}
		for _, ex := range exs {
			if !vecmath.AllFinite(ex.Features.Val) {
				t.Fatalf("accepted a non-finite value: %v", ex.Features.Val)
			}
		}
		var out bytes.Buffer
		if err := WriteXC(&out, exs, nf, nl); err != nil {
			t.Fatal(err)
		}
		back, nf2, nl2, err := ReadXC(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("WriteXC output does not read back: %v\n%s", err, out.String())
		}
		if nf2 != nf || nl2 != nl || !reflect.DeepEqual(back, exs) {
			t.Fatalf("WriteXC/ReadXC round trip changed the data:\n%q\n%q", in, out.String())
		}
	})
}

func TestReadXCNoLabelLine(t *testing.T) {
	in := "1 10 5\n 0:1.5 3:2\n"
	exs, _, _, err := ReadXC(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(exs) != 1 || len(exs[0].Labels) != 0 || exs[0].Features.NNZ() != 2 {
		t.Fatalf("parsed %+v", exs)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ds, err := Generate(tinyProfile(2))
	if err != nil {
		t.Fatal(err)
	}
	ds.Train[0].Labels = []int32{int32(ds.NumClasses)}
	if err := ds.Validate(); err == nil {
		t.Fatal("out-of-range label not caught")
	}
}

// TestGenerateGoldenHash pins the generator's output — FNV-64a over every
// example's labels, feature indices and value bits, train then test — for
// one small profile, recorded before the network's weight init stopped
// using rng.NormFloat32: the generator's draws may not move with it.
func TestGenerateGoldenHash(t *testing.T) {
	ds, err := Generate(tinyProfile(3))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := datasetHash(ds), uint64(0xe26f5a207d7d02e0); got != want {
		t.Fatalf("Generate hash %#x, want %#x", got, want)
	}
}

// TestGenerateShapeGoldenHashes pins Generate at the benchmark workloads'
// shapes, recorded before the generator was rewritten to allocate per
// example: the tiny profile's examples hold too few features to reach
// the unstable (pdqsort) path of the feature sort, which starts at 13
// elements. These shapes reach it, but their examples rarely hold three
// equal ids, so the order of duplicate sums is pinned by sparse's
// TestNewMatchesPermutationSort, not here.
func TestGenerateShapeGoldenHashes(t *testing.T) {
	xwide := Amazon670K(0.2, 1)
	xwide.TrainSize, xwide.TestSize = 15360, 1024
	for _, c := range []struct {
		name  string
		p     Profile
		large bool
		want  uint64
	}{
		{"train_converge", Delicious200K(0.03, 1), false, 0xb99d97e2f02462a1},
		{"train_xwide", xwide, true, 0x0f6f4684fc4eb3ee},
		{"serve_open", Delicious200K(0.1, 1), true, 0x127320ee58f7d087},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.large && raceEnabled {
				t.Skip("large shape: seconds under the race detector")
			}
			ds, err := Generate(c.p)
			if err != nil {
				t.Fatal(err)
			}
			if got := datasetHash(ds); got != c.want {
				t.Fatalf("Generate hash %#x, want %#x", got, c.want)
			}
		})
	}
}

// TestGenerateAllocsPerExample gates the generator's heap allocations at
// train_converge's shape: an example keeps its labels, feature ids and
// values (three allocations, sparse.New's sort allocating nothing), and
// everything else is per worker or per dataset. Before the per-worker
// scratch it was ~29 per example.
func TestGenerateAllocsPerExample(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := Delicious200K(0.03, 1)
	perExample := testing.AllocsPerRun(2, func() {
		if _, err := Generate(p); err != nil {
			t.Fatal(err)
		}
	}) / float64(p.TrainSize+p.TestSize)
	t.Logf("%.2f allocations per example", perExample)
	if perExample > 4 {
		t.Fatalf("Generate makes %.2f heap allocations per example, want ≤ 4", perExample)
	}
}

// BenchmarkGenerate times Generate at the benchmark workloads' shapes;
// run with -benchmem for the allocations behind it.
func BenchmarkGenerate(b *testing.B) {
	xwide := Amazon670K(0.2, 1)
	xwide.TrainSize, xwide.TestSize = 15360, 1024
	for _, c := range []struct {
		name string
		p    Profile
	}{{"train_converge", Delicious200K(0.03, 1)}, {"train_xwide", xwide}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := Generate(c.p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(c.p.TrainSize+c.p.TestSize)), "ns/example")
		})
	}
}

// datasetHash is FNV-64a over every example's labels, feature indices and
// value bits, train then test.
func datasetHash(ds *Dataset) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(u uint32) {
		binary.LittleEndian.PutUint32(b[:], u)
		h.Write(b[:])
	}
	for _, split := range [][]Example{ds.Train, ds.Test} {
		for _, ex := range split {
			put(uint32(len(ex.Labels)))
			for _, l := range ex.Labels {
				put(uint32(l))
			}
			put(uint32(len(ex.Features.Idx)))
			for j, i := range ex.Features.Idx {
				put(uint32(i))
				put(math.Float32bits(ex.Features.Val[j]))
			}
		}
	}
	return h.Sum64()
}
