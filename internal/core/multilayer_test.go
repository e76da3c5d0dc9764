package core

import (
	"testing"
	"time"

	"repro/internal/lsh"
	"repro/internal/sampling"
)

// TestThreeLayerWithSampledMiddle exercises the general multi-layer path
// the paper's Fig. 2 sketches (tables on hidden layers too): a sampled
// middle layer makes the next layer's input a sparse active set, driving
// the HashSparse query path and sparse-input backprop during training.
func TestThreeLayerWithSampledMiddle(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(Config{
		InputDim: 512,
		Seed:     21,
		Layers: []LayerConfig{
			{Size: 96, Activation: ActReLU},
			{
				Size: 256, Activation: ActReLU,
				Sampled: true, Hash: lsh.KindSimhash, K: 4, L: 12,
				Strategy: sampling.KindVanilla, Beta: 64,
			},
			{
				Size: classes, Activation: ActSoftmax,
				Sampled: true, Hash: lsh.KindDWTA, K: 4, L: 12, RangePow: 5,
				Strategy: sampling.KindVanilla, Beta: 48,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Train(ds.Train, ds.Test, TrainConfig{Epochs: 6, Seed: 3, EvalEvery: 40})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("3-layer P@1=%.3f, mean active: hidden2=%.0f/256, out=%.0f/%d",
		res.FinalAcc, res.MeanActive[1], res.MeanActive[2], classes)
	if res.FinalAcc < 0.10 {
		t.Fatalf("multi-sampled-layer network failed to learn: P@1 = %.3f", res.FinalAcc)
	}
	if res.MeanActive[1] >= 256 || res.MeanActive[2] >= float64(classes) {
		t.Fatalf("sampling inactive: %v", res.MeanActive)
	}
}

// TestSampledInference compares SLIDE's sub-linear inference
// (hash-retrieved active set) against the exact full forward: it must be
// faster per query at scale while retaining most of the accuracy — the
// paper's claim that SLIDE reduces computation "during both training and
// inference".
func TestSampledInference(t *testing.T) {
	classes := 512
	ds := tinyDataset(t, classes)
	cfg := tinyConfig(classes)
	cfg.Layers[1].Beta = 64
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Epochs: 6, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	// Rebuild so the tables reflect the final weights before inference.
	n.RebuildTables(0)

	st, err := newElemState(n, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fullHits, sampHits, sampActive int
	const trials = 300
	t0 := time.Now()
	for i := 0; i < trials; i++ {
		ex := &ds.Test[i]
		top, _ := n.predictInto(st, ex.Features, 1, modeEvalFull)
		if len(top) > 0 && containsSortedLabel(ex.Labels, top[0]) {
			fullHits++
		}
	}
	fullDur := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < trials; i++ {
		ex := &ds.Test[i]
		top, _ := n.predictInto(st, ex.Features, 1, modeEvalSampled)
		sampActive += len(st.layers[1].vals)
		if len(top) > 0 && containsSortedLabel(ex.Labels, top[0]) {
			sampHits++
		}
	}
	sampDur := time.Since(t0)

	fullP1 := float64(fullHits) / trials
	sampP1 := float64(sampHits) / trials
	t.Logf("inference: full P@1=%.3f (%v), sampled P@1=%.3f (%v, %.0f active of %d)",
		fullP1, fullDur, sampP1, sampDur, float64(sampActive)/trials, classes)
	if float64(sampActive)/trials >= float64(classes)/2 {
		t.Fatalf("sampled inference used %.0f active neurons — not sub-linear", float64(sampActive)/trials)
	}
	// Sampled inference should retain a large share of exact accuracy.
	if sampP1 < 0.5*fullP1 {
		t.Fatalf("sampled inference lost too much accuracy: %.3f vs %.3f", sampP1, fullP1)
	}
}

// TestManyThreadsStress runs training with more workers than batch
// elements; it must stay finite and keep learning. Workers share no
// writes, so it runs under -race too.
func TestManyThreadsStress(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Train(ds.Train, ds.Test, TrainConfig{
		BatchSize: 16, Iterations: 200, Threads: 32, Seed: 11, EvalEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != res.FinalAcc { // NaN guard
		t.Fatal("training produced NaN accuracy")
	}
	if res.FinalAcc < 0.1 {
		t.Fatalf("oversubscribed run collapsed: P@1 = %.3f", res.FinalAcc)
	}
}
