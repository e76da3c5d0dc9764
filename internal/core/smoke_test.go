package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/sampling"
)

// tinyDataset builds a small learnable synthetic task.
func tinyDataset(t testing.TB, classes int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Profile{
		Name:        "tiny",
		FeatureDim:  512,
		NumClasses:  classes,
		TrainSize:   2000,
		TestSize:    400,
		AvgFeatures: 20,
		AvgLabels:   2,
		ProtoNNZ:    12,
		NoiseFrac:   0.1,
		LabelSkew:   1.5,
		Seed:        7,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return ds
}

func tinyConfig(classes int) Config {
	return Config{
		InputDim: 512,
		Seed:     11,
		Layers: []LayerConfig{
			{Size: 64, Activation: ActReLU},
			{
				Size: classes, Activation: ActSoftmax,
				Sampled: true, Hash: lsh.KindSimhash, K: 5, L: 16,
				Strategy: sampling.KindVanilla, Beta: 48,
			},
		},
	}
}

// TestSlideLearnsTinyTask verifies the end-to-end pipeline: a sampled
// softmax output layer trained end to end must beat random
// guessing by a wide margin on a planted-structure task.
func TestSlideLearnsTinyTask(t *testing.T) {
	classes := 256
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	res, err := n.Train(ds.Train, ds.Test, TrainConfig{
		BatchSize: 64, Epochs: 6, EvalEvery: 40, EvalSamples: 300, Seed: 3,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	t.Logf("final P@1=%.3f after %d iters (%.2fs), rebuilds=%d, mean active=%.1f/%d",
		res.FinalAcc, res.Iterations, res.Seconds, res.Rebuilds, res.MeanActive[1], classes)
	if res.FinalAcc < 0.25 {
		t.Fatalf("P@1 = %.3f; expected the network to learn well above random (1/%d)", res.FinalAcc, classes)
	}
	if res.Rebuilds == 0 {
		t.Fatalf("expected scheduled hash-table rebuilds during training")
	}
	if res.MeanActive[1] >= float64(classes) {
		t.Fatalf("mean active %.1f should be below the layer size %d", res.MeanActive[1], classes)
	}
}
