package dense

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func tinyDS(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Profile{
		Name: "t", FeatureDim: 256, NumClasses: 64,
		TrainSize: 1200, TestSize: 300,
		AvgFeatures: 15, AvgLabels: 2, ProtoNNZ: 10,
		NoiseFrac: 0.1, LabelSkew: 1.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDenseLearns(t *testing.T) {
	ds := tinyDS(t)
	n, err := New(Config{InputDim: 256, Hidden: []int{32}, Classes: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Train(ds.Train, ds.Test, TrainConfig{Epochs: 6, EvalEvery: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc < 0.3 {
		t.Fatalf("dense baseline P@1 = %.3f, expected well above random 1/64", res.FinalAcc)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization out of range: %v", res.Utilization)
	}
}

func TestDenseDeterministicAcrossThreads(t *testing.T) {
	// Dense training parallelizes over disjoint neurons per phase and
	// accumulates per-neuron in element order, so results must not
	// depend on the worker count.
	ds := tinyDS(t)
	run := func(threads int) *Network {
		n, err := New(Config{InputDim: 256, Hidden: []int{16}, Classes: 64, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Train(ds.Train, ds.Test, TrainConfig{
			Iterations: 5, Threads: threads, Seed: 5, BatchSize: 32,
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := run(1), run(6)
	for li := range a.layers {
		for j := 0; j < a.layers[li].out; j++ {
			for i := range a.layers[li].w[j] {
				if a.layers[li].w[j][i] != b.layers[li].w[j][i] {
					t.Fatalf("layer %d w[%d][%d] differs across threads", li, j, i)
				}
			}
		}
	}
}

// TestTrainRejectsNegativeSizes: a negative size is an error naming the
// field — not a panic, and not a run that trains nothing and reports
// success.
func TestTrainRejectsNegativeSizes(t *testing.T) {
	ds := tinyDS(t)
	n, err := New(Config{InputDim: 256, Hidden: []int{16}, Classes: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, field string
		cfg         TrainConfig
	}{
		{"threads -1", "Threads", TrainConfig{Threads: -1, Iterations: 2}},
		{"batch -1", "BatchSize", TrainConfig{BatchSize: -1, Iterations: 2}},
		{"batch -4 epochs derived", "BatchSize", TrainConfig{BatchSize: -4}},
		{"iterations -3", "Iterations", TrainConfig{Iterations: -3}},
		{"epochs -2", "Epochs", TrainConfig{Epochs: -2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := n.Train(ds.Train, ds.Test, tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("Train(%+v) = %v, want an error naming %s", tc.cfg, err, tc.field)
			}
		})
	}
}

func TestPredictAndEvaluate(t *testing.T) {
	ds := tinyDS(t)
	n, err := New(Config{InputDim: 256, Hidden: []int{32}, Classes: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Epochs: 4, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	ids, scores := n.Predict(ds.Test[0].Features, 5)
	if len(ids) != 5 || len(scores) != 5 {
		t.Fatalf("Predict shape %d/%d", len(ids), len(scores))
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1] {
			t.Fatalf("scores not sorted: %v", scores)
		}
	}
	ev := n.Evaluate(ds.Test, 100, 4, 1, 5)
	if ev.N != 100 || ev.P1 < 0 || ev.P1 > 1 {
		t.Fatalf("Evaluate = %+v", ev)
	}
	if math.Abs(ev.PAtK[1]-ev.P1) > 1e-9 {
		t.Fatalf("P@1 mismatch: %v vs %v", ev.PAtK[1], ev.P1)
	}
	// A non-positive k is skipped, on every worker, and reads 0.
	neg := n.Evaluate(ds.Test, 100, 4, 1, 0, -1)
	if neg.P1 != ev.P1 || neg.PAtK[1] != ev.PAtK[1] || neg.PAtK[0] != 0 || neg.PAtK[-1] != 0 {
		t.Fatalf("Evaluate with k 0 and -1 = %+v, want P@1 %v and zeros", neg, ev.P1)
	}
}

func TestNumParams(t *testing.T) {
	n, err := New(Config{InputDim: 1000, Hidden: []int{128}, Classes: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumParams() != 1000*128+128+128*5000+5000 {
		t.Fatalf("NumParams = %d", n.NumParams())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{InputDim: 0, Classes: 4}); err == nil {
		t.Error("zero InputDim accepted")
	}
	if _, err := New(Config{InputDim: 4, Classes: 0}); err == nil {
		t.Error("zero Classes accepted")
	}
	if _, err := New(Config{InputDim: 4, Classes: 4, Hidden: []int{0}}); err == nil {
		t.Error("zero hidden size accepted")
	}
}

func TestEmptyTrainRejected(t *testing.T) {
	n, err := New(Config{InputDim: 4, Classes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(nil, nil, TrainConfig{}); err == nil {
		t.Fatal("empty training split accepted")
	}
}

// weightsHash is FNV-64a over every layer's weights and biases, in layer,
// row and column order.
func weightsHash(n *Network) uint64 {
	h := fnv.New64a()
	for _, l := range n.layers {
		for _, row := range l.w {
			for _, v := range row {
				h.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
			}
		}
		for _, v := range l.b {
			h.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
		}
	}
	return h.Sum64()
}

// TestTrainReportsLoss: every evaluation point carries the mean training
// cross-entropy since the previous one, finite and positive, and reading
// it moves no weight: after 40 batches the weights hash to what they did
// before the loss was summed (recorded then), at 1 and 2 threads alike.
func TestTrainReportsLoss(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("weights hash recorded on amd64, running on %s", runtime.GOARCH)
	}
	ds := tinyDS(t)
	const want = 0x204236bd375b2bc1
	for _, threads := range []int{1, 2} {
		n, err := New(Config{InputDim: 256, Hidden: []int{32}, Classes: 64, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 40, BatchSize: 32, EvalEvery: 10, Threads: threads, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Curve.Points) != 4 {
			t.Fatalf("%d threads: %d evaluation points, want 4", threads, len(res.Curve.Points))
		}
		for _, p := range res.Curve.Points {
			if !(p.Loss > 0) || math.IsInf(p.Loss, 0) {
				t.Fatalf("%d threads: point at iteration %d has loss %v", threads, p.Iter, p.Loss)
			}
		}
		if got := weightsHash(n); got != want {
			t.Errorf("%d threads: weights hash %#x, want %#x", threads, got, want)
		}
	}
}
