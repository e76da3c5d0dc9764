package baselines_test

import (
	"testing"

	slide "repro"
	"repro/baselines"
	"repro/dataset"
)

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Profile{
		Name: "baselines", FeatureDim: 256, NumClasses: 64,
		TrainSize: 512, TestSize: 128,
		AvgFeatures: 15, AvgLabels: 2, ProtoNNZ: 10, NoiseFrac: 0.1, LabelSkew: 1.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestBaselinesTrain: both comparison systems train through the public
// surface for exactly the requested iterations and report a P@1 in [0, 1].
func TestBaselinesTrain(t *testing.T) {
	ds := testData(t)
	const iters = 20
	for _, b := range []struct {
		name  string
		train func() (iterations int64, acc float64, err error)
	}{
		{"dense", func() (int64, float64, error) {
			n, err := baselines.NewDense(baselines.DenseConfig{InputDim: 256, Hidden: []int{32}, Classes: 64, Seed: 3})
			if err != nil {
				return 0, 0, err
			}
			res, err := n.Train(ds.Train, ds.Test, baselines.DenseTrainConfig{BatchSize: 32, Iterations: iters, Threads: 2, Seed: 5})
			if err != nil {
				return 0, 0, err
			}
			return res.Iterations, res.FinalAcc, nil
		}},
		{"sampled-softmax", func() (int64, float64, error) {
			cfg := baselines.SampledSoftmaxConfig{InputDim: 256, Hidden: []int{32}, Classes: 64, Samples: 16, Seed: 3}
			res, err := baselines.TrainSampledSoftmax(cfg, ds.Train, ds.Test, slide.TrainConfig{BatchSize: 32, Iterations: iters, Threads: 2, Seed: 5})
			if err != nil {
				return 0, 0, err
			}
			return res.Iterations, res.FinalAcc, nil
		}},
	} {
		t.Run(b.name, func(t *testing.T) {
			it, acc, err := b.train()
			if err != nil {
				t.Fatal(err)
			}
			if it != iters {
				t.Errorf("ran %d iterations, want %d", it, iters)
			}
			if acc < 0 || acc > 1 {
				t.Errorf("P@1 = %v", acc)
			}
		})
	}
}

// TestSampledSoftmaxSampleCount: the candidate count must be a positive
// number no larger than the class count.
func TestSampledSoftmaxSampleCount(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples int
		ok      bool
	}{
		{"zero", 0, false},
		{"above classes", 65, false},
		{"all classes", 64, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := baselines.NewSampledSoftmax(baselines.SampledSoftmaxConfig{InputDim: 32, Classes: 64, Samples: tc.samples, Seed: 1})
			if (err == nil) != tc.ok {
				t.Fatalf("Samples %d: err = %v, want ok=%v", tc.samples, err, tc.ok)
			}
		})
	}
}
