// Package dataset provides the extreme multi-label classification
// workloads SLIDE is evaluated on (§5, Table 1).
//
// The paper uses Delicious-200K and Amazon-670K from the Extreme
// Classification Repository. Those corpora are not redistributable and the
// module builds offline, so this package supplies two things:
//
//   - A synthetic generator whose profiles match the published Table 1
//     statistics (feature dimension, feature sparsity, label dimension,
//     train/test sizes) at a configurable scale factor, with planted
//     class structure so that the tasks are genuinely learnable: each
//     class owns a sparse prototype and an example's features are a noisy
//     union of its labels' prototypes.
//   - A reader/writer for the repository's SVMLight-style format, so the
//     real datasets drop in unchanged when available.
package dataset

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// Example is one multi-label classification instance.
type Example struct {
	// Features is the sparse input vector.
	Features sparse.Vector
	// Labels lists the true class ids, ascending, no duplicates.
	Labels []int32
}

// Dataset is a named train/test split over a fixed feature and label space.
type Dataset struct {
	Name       string
	InputDim   int
	NumClasses int
	Train      []Example
	Test       []Example
}

// Stats summarizes a dataset in the shape of the paper's Table 1.
type Stats struct {
	Name            string
	FeatureDim      int
	FeatureSparsity float64 // mean NNZ / FeatureDim
	LabelDim        int
	TrainSize       int
	TestSize        int
	AvgFeatures     float64 // mean non-zeros per example
	AvgLabels       float64 // mean labels per example
}

// Stats computes summary statistics over the train split (falling back to
// test when train is empty).
func (d *Dataset) Stats() Stats {
	s := Stats{
		Name:       d.Name,
		FeatureDim: d.InputDim,
		LabelDim:   d.NumClasses,
		TrainSize:  len(d.Train),
		TestSize:   len(d.Test),
	}
	src := d.Train
	if len(src) == 0 {
		src = d.Test
	}
	if len(src) == 0 {
		return s
	}
	var nnz, nlab int
	for i := range src {
		nnz += src[i].Features.NNZ()
		nlab += len(src[i].Labels)
	}
	s.AvgFeatures = float64(nnz) / float64(len(src))
	s.AvgLabels = float64(nlab) / float64(len(src))
	if d.InputDim > 0 {
		s.FeatureSparsity = s.AvgFeatures / float64(d.InputDim)
	}
	return s
}

// Validate checks structural invariants: feature indices within InputDim,
// labels within NumClasses, ascending and unique.
func (d *Dataset) Validate() error {
	check := func(split string, exs []Example) error {
		for n := range exs {
			ex := &exs[n]
			if ex.Features.Dim != d.InputDim {
				return fmt.Errorf("dataset %s: %s[%d] feature dim %d != %d", d.Name, split, n, ex.Features.Dim, d.InputDim)
			}
			for j, i := range ex.Features.Idx {
				if i < 0 || int(i) >= d.InputDim {
					return fmt.Errorf("dataset %s: %s[%d] feature index %d out of range", d.Name, split, n, i)
				}
				if j > 0 && ex.Features.Idx[j-1] >= i {
					return fmt.Errorf("dataset %s: %s[%d] feature indices not strictly ascending", d.Name, split, n)
				}
			}
			for j, l := range ex.Labels {
				if l < 0 || int(l) >= d.NumClasses {
					return fmt.Errorf("dataset %s: %s[%d] label %d out of range", d.Name, split, n, l)
				}
				if j > 0 && ex.Labels[j-1] >= l {
					return fmt.Errorf("dataset %s: %s[%d] labels not strictly ascending", d.Name, split, n)
				}
			}
		}
		return nil
	}
	if err := check("train", d.Train); err != nil {
		return err
	}
	return check("test", d.Test)
}

// Profile parameterizes the synthetic generator.
type Profile struct {
	// Name labels the generated dataset.
	Name string
	// FeatureDim and NumClasses are the input and label space sizes.
	FeatureDim int
	NumClasses int
	// TrainSize and TestSize are the split sizes.
	TrainSize int
	TestSize  int
	// AvgFeatures is the mean non-zeros per example.
	AvgFeatures int
	// AvgLabels is the mean labels per example.
	AvgLabels int
	// ProtoNNZ is the sparse prototype size per class.
	ProtoNNZ int
	// NoiseFrac is the fraction of an example's features drawn uniformly
	// instead of from its labels' prototypes.
	NoiseFrac float64
	// LabelSkew controls class popularity: labels are drawn as
	// floor(C * u^LabelSkew), so values above 1 skew toward low ids
	// (head classes), mimicking the long-tailed XC label distributions.
	LabelSkew float64
	// Seed drives generation.
	Seed uint64
}

// Delicious200K returns the Delicious-200K profile from Table 1 scaled by
// scale in (0, 1]: dimensions and sizes multiply by scale; per-example
// counts shrink like sqrt(scale) so small instances stay learnable.
func Delicious200K(scale float64, seed uint64) Profile {
	return scaleProfile(Profile{
		Name:        "delicious-200k",
		FeatureDim:  782585,
		NumClasses:  205443,
		TrainSize:   196606,
		TestSize:    100095,
		AvgFeatures: 300, // 0.038% of 782,585 (Table 1)
		AvgLabels:   75,
		ProtoNNZ:    60,
		NoiseFrac:   0.15,
		LabelSkew:   2,
		Seed:        seed,
	}, scale)
}

// Amazon670K returns the Amazon-670K profile from Table 1 scaled by scale.
func Amazon670K(scale float64, seed uint64) Profile {
	return scaleProfile(Profile{
		Name:        "amazon-670k",
		FeatureDim:  135909,
		NumClasses:  670091,
		TrainSize:   490449,
		TestSize:    153025,
		AvgFeatures: 75, // 0.055% of 135,909 (Table 1)
		AvgLabels:   5,
		ProtoNNZ:    40,
		NoiseFrac:   0.15,
		LabelSkew:   2,
		Seed:        seed,
	}, scale)
}

func scaleProfile(p Profile, scale float64) Profile {
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("dataset: scale must be in (0,1], got %g", scale))
	}
	if scale == 1 {
		return p
	}
	root := math.Sqrt(scale)
	p.Name = fmt.Sprintf("%s@%.4g", p.Name, scale)
	p.FeatureDim = max(64, int(float64(p.FeatureDim)*scale))
	p.NumClasses = max(16, int(float64(p.NumClasses)*scale))
	p.TrainSize = max(64, int(float64(p.TrainSize)*scale))
	p.TestSize = max(32, int(float64(p.TestSize)*scale))
	p.AvgFeatures = clampInt(int(float64(p.AvgFeatures)*root), 4, p.FeatureDim/2)
	p.AvgLabels = clampInt(int(float64(p.AvgLabels)*root), 1, max(1, p.NumClasses/8))
	p.ProtoNNZ = clampInt(int(float64(p.ProtoNNZ)*root), 4, p.FeatureDim/2)
	return p
}

// Generate synthesizes a dataset from the profile. Generation is
// deterministic in Profile.Seed independent of parallelism.
func Generate(p Profile) (*Dataset, error) {
	if p.FeatureDim <= 0 || p.NumClasses <= 0 {
		return nil, fmt.Errorf("dataset: profile needs positive dims, got features=%d classes=%d", p.FeatureDim, p.NumClasses)
	}
	if p.AvgFeatures <= 0 || p.AvgLabels <= 0 || p.ProtoNNZ <= 0 {
		return nil, fmt.Errorf("dataset: profile needs positive per-example counts")
	}
	if p.LabelSkew <= 0 {
		p.LabelSkew = 1
	}
	d := &Dataset{
		Name:       p.Name,
		InputDim:   p.FeatureDim,
		NumClasses: p.NumClasses,
		Train:      make([]Example, p.TrainSize),
		Test:       make([]Example, p.TestSize),
	}
	// Labels are each example's first draws and read no prototype, so a
	// first pass draws every example's labels, keeping its stream where
	// the features start, and only the classes they name get a prototype:
	// each class draws from its own stream, so the rest change nothing.
	train := genLabels(p, d.Train, 0x11a1)
	test := genLabels(p, d.Test, 0x7e57)
	named := make([]bool, p.NumClasses)
	for _, split := range [][]Example{d.Train, d.Test} {
		for _, ex := range split {
			for _, c := range ex.Labels {
				named[c] = true
			}
		}
	}
	protos := makePrototypes(p, named)
	genFeatures(p, &protos, d.Train, train)
	genFeatures(p, &protos, d.Test, test)
	return d, nil
}

// prototypes holds the named classes' sparse signatures in two slabs:
// class c owns the nnz feature ids and values at [c·nnz, (c+1)·nnz),
// which stay zero for a class no example names.
type prototypes struct {
	nnz int
	idx []int32
	val []float32
}

func (ps *prototypes) class(c int32) ([]int32, []float32) {
	lo, hi := int(c)*ps.nnz, (int(c)+1)*ps.nnz
	return ps.idx[lo:hi], ps.val[lo:hi]
}

// makePrototypes draws the prototype of every class marked in named, each
// from its own stream.
func makePrototypes(p Profile, named []bool) prototypes {
	n := p.ProtoNNZ
	ps := prototypes{nnz: n, idx: make([]int32, p.NumClasses*n), val: make([]float32, p.NumClasses*n)}
	var classes []int32
	for c, ok := range named {
		if ok {
			classes = append(classes, int32(c))
		}
	}
	parallelFor(len(classes), func(lo, hi int) {
		var r rng.RNG
		var pick []int
		for _, c := range classes[lo:hi] {
			r.ReseedStream(p.Seed^0x9b0+uint64(c)*0x9e3779b97f4a7c15, 0xb0)
			pick = r.SampleKInto(pick, p.FeatureDim, n)
			idx, val := ps.class(c)
			for j, i := range pick {
				idx[j] = int32(i)
			}
			r.FillNormFloat32(val, 1)
			for j, x := range val {
				val[j] = 0.5 + absf(x)
			}
		}
	})
	return ps
}

// genLabels draws every example's label set into out and returns each
// example's stream as the label draws leave it.
func genLabels(p Profile, out []Example, salt uint64) []rng.RNG {
	streams := make([]rng.RNG, len(out))
	parallelFor(len(out), func(lo, hi int) {
		var labels []int32
		for n := lo; n < hi; n++ {
			r := &streams[n]
			r.ReseedStream(p.Seed^salt+uint64(n)*0x9e3779b97f4a7c15, salt)
			labels = drawLabels(p, r, labels[:0])
			out[n].Labels = slices.Clone(labels)
		}
	})
	return streams
}

// drawLabels appends an example's label set to labels: skewed toward head
// classes, deduplicated, kept ascending as it is drawn.
func drawLabels(p Profile, r *rng.RNG, labels []int32) []int32 {
	nLab := 1 + r.Intn(2*p.AvgLabels-1) // mean AvgLabels
	if nLab > p.NumClasses {
		nLab = p.NumClasses
	}
	for len(labels) < nLab {
		u := r.Float64()
		c := int32(float64(p.NumClasses) * math.Pow(u, p.LabelSkew))
		if int(c) >= p.NumClasses {
			c = int32(p.NumClasses - 1)
		}
		at, dup := slices.BinarySearch(labels, c)
		if dup {
			if len(labels) >= p.NumClasses {
				break
			}
			continue
		}
		labels = slices.Insert(labels, at, c)
	}
	return labels
}

// genFeatures draws every example's features, continuing its stream from
// the label draws.
func genFeatures(p Profile, ps *prototypes, out []Example, streams []rng.RNG) {
	parallelFor(len(out), func(lo, hi int) {
		var g featureGen
		for n := lo; n < hi; n++ {
			out[n].Features = g.features(p, ps, &streams[n], out[n].Labels)
		}
	})
}

// featureGen is one worker's feature scratch, which outlives each example,
// so an example allocates only what it keeps (its feature ids and values).
type featureGen struct {
	pick []int
	idx  []int32
	val  []float32
}

// features draws an example's features from its stream r: a noisy subset
// of each label's prototype plus background noise, L2-normalized (SLIDE's
// Simhash is a cosine LSH).
func (g *featureGen) features(p Profile, ps *prototypes, r *rng.RNG, labels []int32) sparse.Vector {
	signal := p.AvgFeatures - int(float64(p.AvgFeatures)*p.NoiseFrac)
	perLabel := max(2, signal/len(labels))
	fi, fv := g.idx[:0], g.val[:0]
	for _, c := range labels {
		idx, val := ps.class(c)
		take := perLabel
		if take > len(idx) {
			take = len(idx)
		}
		g.pick = r.SampleKInto(g.pick, len(idx), take)
		for _, j := range g.pick {
			fi = append(fi, idx[j])
			fv = append(fv, val[j]*(0.8+0.4*r.Float32()))
		}
	}
	noise := int(float64(p.AvgFeatures) * p.NoiseFrac)
	for i := 0; i < noise; i++ {
		id := int32(r.Intn(p.FeatureDim))
		fi = append(fi, id)
		fv = append(fv, 0.1+0.2*r.Float32())
	}
	g.idx, g.val = fi, fv
	vec, err := sparse.New(p.FeatureDim, fi, fv)
	if err != nil {
		panic(err) // indices are generated in range; unreachable
	}
	if n := vec.Norm2(); n > 0 {
		inv := float32(1 / n)
		for j := range vec.Val {
			vec.Val[j] *= inv
		}
	}
	return vec
}

// parallelFor splits [0, n) into one contiguous range per GOMAXPROCS
// worker and runs f on each.
func parallelFor(n int, f func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(w*n/workers, (w+1)*n/workers)
	}
	wg.Wait()
}

func absf(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

func clampInt(x, lo, hi int) int {
	if hi < lo {
		hi = lo
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
