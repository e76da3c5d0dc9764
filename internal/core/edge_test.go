package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sparse"
)

// TestDegenerateExamples: training must tolerate empty feature vectors,
// empty label sets and single-feature inputs without NaNs or panics
// (real XC data contains all three).
func TestDegenerateExamples(t *testing.T) {
	classes := 64
	train := []dataset.Example{
		{Features: sparse.Vector{Dim: 512}, Labels: []int32{3}},                // no features
		{Features: sparse.MustNew(512, []int32{5}, []float32{1}), Labels: nil}, // no labels
		{Features: sparse.MustNew(512, []int32{7}, []float32{1}), Labels: []int32{1, 2, 3}},
		{Features: sparse.MustNew(512, []int32{0, 511}, []float32{0.5, 0.5}), Labels: []int32{63}},
	}
	// Pad with clones so a batch fills.
	for len(train) < 64 {
		train = append(train, train[len(train)%4])
	}
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Train(train, train[:8], TrainConfig{BatchSize: 16, Iterations: 20, Seed: 1, EvalEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Weights must stay finite.
	for li := range n.layers {
		l := n.layers[li]
		for _, row := range l.w {
			for _, w := range row {
				if math.IsNaN(float64(w)) || math.IsInf(float64(w), 0) {
					t.Fatalf("layer %d produced non-finite weight", li)
				}
			}
		}
	}
}

// TestExtremeValues: very large feature values must not break the
// softmax (LSE stabilization) or the LSH hashing.
func TestExtremeValues(t *testing.T) {
	classes := 64
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	st, err := newElemState(n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := sparse.MustNew(512, []int32{1, 2, 3}, []float32{1e6, -1e6, 1e6})
	n.forwardElem(st, x, []int32{5}, modeTrain)
	out := &st.layers[1]
	var sum float64
	for _, p := range out.vals {
		if math.IsNaN(float64(p)) {
			t.Fatal("softmax produced NaN on extreme input")
		}
		sum += float64(p)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("softmax sum = %v", sum)
	}
}

// TestBatchLargerThanTrain: the trainer reshuffles and wraps when the
// batch exceeds the epoch remainder.
func TestBatchLargerThanTrain(t *testing.T) {
	classes := 64
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	small := ds.Train[:40] // batch 64 > 40 examples
	res, err := n.Train(small, ds.Test, TrainConfig{BatchSize: 64, Iterations: 10, Seed: 1, EvalEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 10 {
		t.Fatalf("ran %d iterations", res.Iterations)
	}
}

// TestSingleClassDataset: degenerate one-class problems must train and
// reach P@1 = 1.
func TestSingleClassDataset(t *testing.T) {
	train := make([]dataset.Example, 64)
	for i := range train {
		train[i] = dataset.Example{
			Features: sparse.MustNew(512, []int32{int32(i % 50)}, []float32{1}),
			Labels:   []int32{0},
		}
	}
	cfg := tinyConfig(1)
	cfg.Layers[1].Beta = 1
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Train(train, train, TrainConfig{BatchSize: 16, Iterations: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != 1 {
		t.Fatalf("single-class P@1 = %v", res.FinalAcc)
	}
}

// TestMaxSecondsBudget: the wall-clock budget stops a long run.
func TestMaxSecondsBudget(t *testing.T) {
	classes := 256
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Train(ds.Train, ds.Test, TrainConfig{
		Iterations: 1 << 30, MaxSeconds: 0.2, Seed: 1, EvalEvery: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds > 2 {
		t.Fatalf("MaxSeconds ignored: ran %.1fs", res.Seconds)
	}
}

// TestRejectsOutOfRangeInput: an example or a query the network cannot
// index is an error naming the example and the value, not a panic in a
// worker goroutine the caller cannot recover. Each row corrupts one
// example of a valid split or one query.
func TestRejectsOutOfRangeInput(t *testing.T) {
	const classes = 64
	ds := deltaTestDataset(t, classes)
	n := mustNet(t, deltaTestConfig(classes))
	dim := n.Config().InputDim
	withFeature := func(ex dataset.Example, i int32) dataset.Example {
		ex.Features = sparse.Vector{Dim: dim, Idx: append(append([]int32(nil), ex.Features.Idx...), i), Val: append(append([]float32(nil), ex.Features.Val...), 1)}
		return ex
	}
	withLabel := func(ex dataset.Example, lab int32) dataset.Example {
		ex.Labels = append(append([]int32(nil), ex.Labels...), lab)
		return ex
	}
	short := sparse.Vector{Dim: dim, Idx: []int32{1, 2}, Val: []float32{1}}
	tc := TrainConfig{BatchSize: 8, Iterations: 2, Threads: 2, Seed: 1, EvalEvery: 0}
	train := func(k int, ex dataset.Example, test bool) error {
		tr := append([]dataset.Example(nil), ds.Train[:32]...)
		te := append([]dataset.Example(nil), ds.Test[:8]...)
		if test {
			te[k] = ex
		} else {
			tr[k] = ex
		}
		_, err := n.Train(tr, te, tc)
		return err
	}
	pred, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	bad := withFeature(ds.Train[0], int32(dim)).Features
	batch := []sparse.Vector{ds.Test[0].Features, ds.Test[1].Features, bad}
	for _, c := range []struct {
		name string
		run  func() error
		want []string
	}{
		{"training feature = InputDim", func() error { return train(5, withFeature(ds.Train[5], int32(dim)), false) },
			[]string{"training example 5", fmt.Sprint(dim)}},
		{"training feature -1", func() error { return train(7, withFeature(ds.Train[7], -1), false) },
			[]string{"training example 7", "-1"}},
		{"training label = classes", func() error { return train(3, withLabel(ds.Train[3], classes), false) },
			[]string{"training example 3", "label 64"}},
		{"training label -1", func() error { return train(0, withLabel(ds.Train[0], -1), false) },
			[]string{"training example 0", "label -1"}},
		{"training values short", func() error { return train(2, dataset.Example{Features: short, Labels: []int32{1}}, false) },
			[]string{"training example 2", "2 feature indices but 1 values"}},
		{"test feature = InputDim", func() error { return train(4, withFeature(ds.Test[4], int32(dim)), true) },
			[]string{"test example 4", fmt.Sprint(dim)}},
		{"Predict", func() error { _, _, err := pred.Predict(bad, 3); return err }, []string{fmt.Sprint(dim)}},
		{"PredictSampled", func() error { _, _, err := pred.PredictSampled(bad, 3, PredictOpts{Seed: 1}); return err }, []string{fmt.Sprint(dim)}},
		{"TopKWithScoresInto", func() error {
			_, _, err := pred.TopKWithScoresInto(context.Background(), bad, 3, true, nil, nil)
			return err
		}, []string{fmt.Sprint(dim)}},
		{"PredictBatch", func() error { _, _, err := pred.PredictBatch(context.Background(), batch, 3); return err }, []string{"input 2", fmt.Sprint(dim)}},
		{"PredictBatchInto", func() error {
			return pred.PredictBatchInto(context.Background(), batch, 3, true, &BatchResults{})
		}, []string{"input 2", fmt.Sprint(dim)}},
		{"Evaluate", func() error {
			_, err := n.Evaluate(append([]dataset.Example{withFeature(ds.Test[0], int32(dim))}, ds.Test[1:4]...), 0, 2, 1)
			return err
		}, []string{"test example 0", fmt.Sprint(dim)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.run()
			if err == nil {
				t.Fatal("accepted")
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q does not name %q", err, w)
				}
			}
		})
	}
	if n.Step() != 0 {
		t.Fatalf("rejected runs trained %d iterations", n.Step())
	}
}
