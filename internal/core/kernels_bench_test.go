package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/sampling"
	"repro/internal/sparse"
)

// Hot-path benchmarks for the kernel engine: one element's forward and
// backward pass at a serving-shaped operating point (sparse features into
// an input-major 128-wide hidden layer, ~2% active output layer). CI runs
// these at -benchtime=1x as a smoke check.

// benchKernelNet builds the paper-shaped network at a benchable scale.
func benchKernelNet(b *testing.B) (*Network, *elemState, []dataset.Example) {
	b.Helper()
	ds, err := dataset.Generate(dataset.Profile{
		Name:        "kernel-bench",
		FeatureDim:  16384,
		NumClasses:  8192,
		TrainSize:   256,
		TestSize:    16,
		AvgFeatures: 64,
		AvgLabels:   2,
		ProtoNNZ:    24,
		NoiseFrac:   0.1,
		LabelSkew:   1.3,
		Seed:        17,
	})
	if err != nil {
		b.Fatal(err)
	}
	n, err := NewNetwork(Config{
		InputDim: ds.InputDim,
		Seed:     23,
		Layers: []LayerConfig{
			{Size: 128, Activation: ActReLU},
			{
				Size: ds.NumClasses, Activation: ActSoftmax,
				Sampled: true, Hash: lsh.KindSimhash, K: 6, L: 20, RangePow: 8,
				Strategy: sampling.KindVanilla, Beta: 164,
			},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	st, err := newElemState(n, 51, 0)
	if err != nil {
		b.Fatal(err)
	}
	return n, st, ds.Train
}

func benchForwardElem(b *testing.B, mode forwardMode) {
	n, st, train := benchKernelNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := &train[i%len(train)]
		n.forwardElem(st, ex.Features, ex.Labels, mode)
	}
}

// Training-shaped forward (sampled output active set).
func BenchmarkForwardTrainKernel(b *testing.B) { benchForwardElem(b, modeTrain) }

// Exact-inference forward (full output layer).
func BenchmarkForwardFullKernel(b *testing.B) { benchForwardElem(b, modeEvalFull) }

// BenchmarkForwardLayer0 isolates the input-major first layer's scatter
// forward: 64 sparse features into 128 dense neurons, one contiguous
// 128-wide weight row streamed per feature.
func BenchmarkForwardLayer0(b *testing.B) {
	n, st, train := benchKernelNet(b)
	l := n.layers[0]
	ls := &st.layers[0]
	ls.reset(true, l.out)
	ls.sizeVals(l.out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := train[i%len(train)].Features
		l.computeActivations(ls, x.Idx, x.Val, false)
	}
}

func BenchmarkBackwardElemKernel(b *testing.B) {
	n, st, train := benchKernelNet(b)
	ex := &train[0]
	rec := trainElem(n, st, 0, 0, 0, ex.Features, ex.Labels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.backwardElem(st, rec, ex.Labels)
	}
}

// BenchmarkPredictEngineKernel measures the end-to-end serving path
// (pooled Predictor, exact top-k) at the bench shape.
func BenchmarkPredictEngineKernel(b *testing.B) {
	n, _, train := benchKernelNet(b)
	pred, err := n.NewPredictor()
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]sparse.Vector, len(train))
	for i := range train {
		xs[i] = train[i].Features
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pred.Predict(xs[i%len(xs)], 5); err != nil {
			b.Fatal(err)
		}
	}
}
