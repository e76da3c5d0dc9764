// Benchmarks for the paper's tables and figures at reduced scale, one (or
// more) per artifact, with tight budgets so `go test -bench=.` exercises
// every one. End-to-end measurements (time to accuracy, throughput,
// serving tails) live in benchmark/; README "Reproducing the paper" maps
// each artifact to what reproduces it.
package slide_test

import (
	"strconv"
	"testing"

	"repro"
	"repro/internal/dataset"
	"repro/internal/dense"
	"repro/internal/hashtable"
	"repro/internal/lsh"
	"repro/internal/rng"
	"repro/internal/sampling"
)

// benchDataset caches one small workload across benchmarks.
var benchDS *dataset.Dataset

func getBenchDS(b *testing.B) *dataset.Dataset {
	b.Helper()
	if benchDS == nil {
		ds, err := dataset.Generate(dataset.Delicious200K(0.01, 42))
		if err != nil {
			b.Fatal(err)
		}
		benchDS = ds
	}
	return benchDS
}

func benchSlideConfig(ds *dataset.Dataset) slide.Config {
	return slide.Config{
		InputDim: ds.InputDim,
		Seed:     42,
		Layers: []slide.LayerConfig{
			{Size: 128, Activation: slide.ActReLU},
			{
				Size: ds.NumClasses, Activation: slide.ActSoftmax,
				Sampled: true, Hash: slide.HashSimhash, K: 6, L: 20,
				Strategy: slide.StrategyVanilla, Beta: ds.NumClasses / 20,
			},
		},
	}
}

// BenchmarkTable1DatasetGen regenerates the Table 1 dataset statistics:
// synthesizing one scaled Delicious-200K profile.
func BenchmarkTable1DatasetGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := dataset.Generate(dataset.Delicious200K(0.005, uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if ds.Stats().TrainSize == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// benchStrategy measures Fig. 4's per-query retrieval cost for one
// sampling strategy over prebuilt (K, L) tables.
func benchStrategy(b *testing.B, kind sampling.Kind) {
	const neurons, dim, k, l = 20544, 128, 6, 20
	fam, err := lsh.New(lsh.KindSimhash, lsh.Params{Dim: dim, K: k, L: l, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := hashtable.New(hashtable.Config{K: k, L: l, CodeBits: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(7)
	vec := make([]float32, dim)
	nf := fam.NumFuncs()
	rows := make([]uint32, neurons*nf)
	for id := 0; id < neurons; id++ {
		for i := range vec {
			vec[i] = r.NormFloat32()
		}
		fam.HashDense(vec, rows[id*nf:(id+1)*nf])
	}
	tbl.BuildParallel(neurons, rows, nf, 1)
	codes := make([]uint32, nf)
	strat, err := sampling.New(sampling.Params{Kind: kind, Beta: neurons / 50, MinCount: 2, Seed: 3}, neurons)
	if err != nil {
		b.Fatal(err)
	}
	for i := range vec {
		vec[i] = r.NormFloat32()
	}
	fam.HashDense(vec, codes)
	dst := make([]uint32, 0, neurons)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = strat.Sample(dst[:0], tbl, codes)
	}
	_ = dst
}

// BenchmarkFig4SamplingVanilla etc. regenerate Fig. 4 / Fig. 12: vanilla
// is O(beta), hard thresholding slightly above, topk pays the sort.
func BenchmarkFig4SamplingVanilla(b *testing.B)       { benchStrategy(b, sampling.KindVanilla) }
func BenchmarkFig4SamplingTopK(b *testing.B)          { benchStrategy(b, sampling.KindTopK) }
func BenchmarkFig4SamplingHardThreshold(b *testing.B) { benchStrategy(b, sampling.KindHardThreshold) }

// BenchmarkFig5SlideIteration measures SLIDE's cost per training
// iteration — the quantity behind the red curves of Fig. 5.
func BenchmarkFig5SlideIteration(b *testing.B) {
	ds := getBenchDS(b)
	net, err := slide.New(benchSlideConfig(ds))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := net.Train(ds.Train, ds.Test, slide.TrainConfig{
		Iterations: int64(b.N), BatchSize: 128, Seed: 3,
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig5DenseIteration measures the dense baseline's cost per
// iteration — the TF-CPU curves of Fig. 5.
func BenchmarkFig5DenseIteration(b *testing.B) {
	ds := getBenchDS(b)
	net, err := dense.New(dense.Config{
		InputDim: ds.InputDim, Hidden: []int{128}, Classes: ds.NumClasses, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := net.Train(ds.Train, ds.Test, dense.TrainConfig{
		Iterations: int64(b.N), BatchSize: 128, Seed: 3,
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable2Utilization runs the Table 2 measurement: a short
// fixed-iteration training run whose busy-fraction accounting feeds the
// utilization table.
func BenchmarkTable2Utilization(b *testing.B) {
	ds := getBenchDS(b)
	for i := 0; i < b.N; i++ {
		net, err := slide.New(benchSlideConfig(ds))
		if err != nil {
			b.Fatal(err)
		}
		res, err := net.Train(ds.Train, ds.Test, slide.TrainConfig{Iterations: 20, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Utilization*100, "util%")
	}
}

// BenchmarkFig7SampledSoftmax measures the sampled-softmax baseline's
// per-iteration cost at a matched candidate budget (Fig. 7's green
// curves).
func BenchmarkFig7SampledSoftmax(b *testing.B) {
	ds := getBenchDS(b)
	cfg := benchSlideConfig(ds)
	cfg.Layers[1].Strategy = slide.StrategyRandom
	net, err := slide.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := net.Train(ds.Train, ds.Test, slide.TrainConfig{
		Iterations: int64(b.N), BatchSize: 128, Seed: 3,
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig8BatchSize sweeps the Fig. 8 batch sizes.
func BenchmarkFig8BatchSize(b *testing.B) {
	ds := getBenchDS(b)
	for _, batch := range []int{64, 128, 256} {
		b.Run(byteSizeName(batch), func(b *testing.B) {
			net, err := slide.New(benchSlideConfig(ds))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := net.Train(ds.Train, ds.Test, slide.TrainConfig{
				Iterations: int64(b.N), BatchSize: batch, Seed: 3,
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFig9Scalability sweeps worker counts for a fixed iteration
// budget (Fig. 9 / Fig. 13's x-axis).
func BenchmarkFig9Scalability(b *testing.B) {
	ds := getBenchDS(b)
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(byteSizeName(threads), func(b *testing.B) {
			net, err := slide.New(benchSlideConfig(ds))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := net.Train(ds.Train, ds.Test, slide.TrainConfig{
				Iterations: int64(b.N), Threads: threads, Seed: 3,
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFig11Theory evaluates the closed-form hard-thresholding
// selection probabilities plotted in Fig. 11.
func BenchmarkFig11Theory(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for m := 1; m <= 9; m += 2 {
			for p := 0.05; p <= 0.95; p += 0.05 {
				sink += sampling.SelectionProbability(p, 1, 10, m)
			}
		}
	}
	_ = sink
}

// BenchmarkTable3Insertion measures full table construction (hash +
// build) for both bucket policies over a neuron population.
func BenchmarkTable3Insertion(b *testing.B) {
	const neurons, dim, k, l = 20544, 128, 6, 20
	fam, err := lsh.New(lsh.KindSimhash, lsh.Params{Dim: dim, K: k, L: l, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(7)
	weights := make([][]float32, neurons)
	for j := range weights {
		row := make([]float32, dim)
		for i := range row {
			row[i] = r.NormFloat32()
		}
		weights[j] = row
	}
	for _, policy := range []hashtable.Policy{hashtable.PolicyReservoir, hashtable.PolicyFIFO} {
		b.Run(policy.String(), func(b *testing.B) {
			nf := fam.NumFuncs()
			codes := make([]uint32, neurons*nf)
			for i := 0; i < b.N; i++ {
				tbl, err := hashtable.New(hashtable.Config{K: k, L: l, CodeBits: 1, Policy: policy, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				for id := 0; id < neurons; id++ {
					fam.HashDense(weights[id], codes[id*nf:(id+1)*nf])
				}
				tbl.BuildParallel(neurons, codes, nf, 1)
			}
		})
	}
}

// BenchmarkRebuildStall measures how long the training loop is blocked
// per hash-table rebuild (§4.2 "Updating Overhead"): each rebuild builds a
// shadow set on a background goroutine from a batch-boundary snapshot and
// is published a fixed lag later, so the loop blocks for the snapshot
// copy, the atomic swap, and whatever of the build outlasts the lag.
// stall-ns/rebuild is that blocking; build-ns/rebuild is the whole build,
// most of it overlapped with training batches.
func BenchmarkRebuildStall(b *testing.B) {
	ds := getBenchDS(b)
	var stallNS, buildNS, rebuilds int64
	for i := 0; i < b.N; i++ {
		cfg := benchSlideConfig(ds)
		cfg.RebuildN0 = 10
		net, err := slide.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := net.Train(ds.Train, ds.Test, slide.TrainConfig{
			Iterations: 60, BatchSize: 128, Seed: 3, EvalEvery: 0,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Rebuilds == 0 {
			b.Fatal("no rebuilds in 60 iterations with N0=10")
		}
		stallNS += res.RebuildStallNS
		buildNS += res.RebuildBuildNS
		rebuilds += int64(res.Rebuilds)
	}
	b.ReportMetric(float64(stallNS)/float64(rebuilds), "stall-ns/rebuild")
	b.ReportMetric(float64(buildNS)/float64(rebuilds), "build-ns/rebuild")
}

func byteSizeName(n int) string { return strconv.Itoa(n) }
