package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/lsh"
	"repro/internal/sampling"
	"repro/internal/sparse"
)

// exactNets returns networks covering every shape the exact pass takes:
// a trained two-layer net whose 600 classes are not a multiple of the
// 512-row block its 64-wide fan-in gets, a three-layer net with a sampled
// middle layer, a one-layer sampled net (batch-major over sparse input
// rows) and a one-layer unsampled net (input-major: per element). All
// take tinyDataset's 512 features.
func exactNets(t testing.TB) (map[string]*Network, []sparse.Vector) {
	trained, xs, _ := trainedNet(t, 600)
	out := func(size int) LayerConfig {
		return LayerConfig{
			Size: size, Activation: ActSoftmax,
			Sampled: true, Hash: lsh.KindSimhash, K: 5, L: 16,
			Strategy: sampling.KindVanilla, Beta: 48,
		}
	}
	unsampled := out(300)
	unsampled.Sampled = false
	nets := map[string]*Network{"two-layer": trained}
	for name, layers := range map[string][]LayerConfig{
		"three-layer":          {{Size: 64, Activation: ActReLU}, {Size: 96, Activation: ActReLU, Sampled: true, Hash: lsh.KindSimhash, K: 4, L: 8, Strategy: sampling.KindVanilla, Beta: 16}, out(300)},
		"one-layer":            {out(300)},
		"one-layer-inputMajor": {unsampled},
	} {
		n, err := NewNetwork(Config{InputDim: 512, Seed: 5, Layers: layers})
		if err != nil {
			t.Fatal(err)
		}
		nets[name] = n
	}
	return nets, xs
}

// cycle returns b inputs drawn from xs in order, wrapping around.
func cycle(xs []sparse.Vector, b int) []sparse.Vector {
	out := make([]sparse.Vector, b)
	for i := range out {
		out[i] = xs[i%len(xs)]
	}
	return out
}

// TestExactBatchMatchesPerElement: exact PredictBatchInto — batch-major
// over sub-batches — answers every element with the ids and score bits of
// the per-element exact pass, at batch sizes 1, 2, 7 and one past the
// sub-batch cap, and k of 0, 1 and OutputDim.
func TestExactBatchMatchesPerElement(t *testing.T) {
	nets, xs := exactNets(t)
	ctx := context.Background()
	for name, n := range nets {
		p, err := n.NewPredictor()
		if err != nil {
			t.Fatal(err)
		}
		if n.batchMajor() == (name == "one-layer-inputMajor") {
			t.Fatalf("%s: batchMajor() = %v", name, n.batchMajor())
		}
		for _, b := range []int{1, 2, 7, n.exactBatchCap() + 1} {
			batch := cycle(xs, b)
			for _, k := range []int{0, 1, n.OutputDim()} {
				var res BatchResults
				if err := p.PredictBatchInto(ctx, batch, k, false, &res); err != nil {
					t.Fatal(err)
				}
				for i, x := range batch {
					if i >= len(xs) {
						break // the cycle repeats answers already checked
					}
					wantIDs, wantScores := preRedesignPredict(t, n, x, k, modeEvalFull)
					if !eqIDs(wantIDs, res.IDs[i]) || !eqScores(wantScores, res.Scores[i]) {
						t.Fatalf("%s, B=%d, k=%d: element %d = %v/%v, per element %v/%v", name, b, k, i, res.IDs[i], res.Scores[i], wantIDs, wantScores)
					}
				}
				for i := len(xs); i < b; i++ {
					if !eqIDs(res.IDs[i], res.IDs[i-len(xs)]) || !eqScores(res.Scores[i], res.Scores[i-len(xs)]) {
						t.Fatalf("%s, B=%d, k=%d: element %d differs from the same input at %d", name, b, k, i, i-len(xs))
					}
				}
			}
		}
	}
}

// TestExactAnswerGoldens pins the two-layer net's exact answers on 32
// inputs to hashes recorded from one-element calls before exact inference
// ran batch-major, whatever the batch size, and re-recorded (all but
// k = 0's) when the trained net's weight moments moved to bfloat16. The
// hashes were recorded on amd64; elsewhere the batched runs must still agree with one-element
// calls.
func TestExactAnswerGoldens(t *testing.T) {
	goldens := map[int]uint64{0: 0x8421ae126c7ced25, 1: 0xc0ddd3e3356172bc, 5: 0x12190d10cd07dc29, 600: 0xf5ce3265a5cba553}
	n, xs, _ := trainedNet(t, 600)
	xs = xs[:32]
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	answers := func(b, k int) uint64 {
		var ids [][]int32
		var scores [][]float32
		var res BatchResults
		for lo := 0; lo < len(xs); lo += b {
			if err := p.PredictBatchInto(context.Background(), xs[lo:min(lo+b, len(xs))], k, false, &res); err != nil {
				t.Fatal(err)
			}
			for i := range res.IDs {
				ids = append(ids, slices.Clone(res.IDs[i]))
				scores = append(scores, slices.Clone(res.Scores[i]))
			}
		}
		return answerHash(ids, scores)
	}
	for k, want := range goldens {
		if runtime.GOARCH != "amd64" {
			want = answers(1, k)
		}
		for _, b := range []int{1, 7, 32} {
			if got := answers(b, k); got != want {
				t.Errorf("k=%d, batches of %d: answers hash %#x, want %#x", k, b, got, want)
			}
		}
	}
}

// TestExactBatchConcurrentCallers runs concurrent exact PredictBatchInto
// callers of mixed batch sizes on one Predictor at GOMAXPROCS 1, 2 and 4
// (under -race, the pooled exact scratch's race proof), each answer
// checked against the per-element pass.
func TestExactBatchConcurrentCallers(t *testing.T) {
	n, xs, _ := trainedNet(t, 600)
	xs = xs[:48]
	const k = 3
	want := make([][]int32, len(xs))
	wantScores := make([][]float32, len(xs))
	for i, x := range xs {
		want[i], wantScores[i] = preRedesignPredict(t, n, x, k, modeEvalFull)
	}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			p, err := n.NewPredictor()
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var res BatchResults
					for it := 0; it < 8; it++ {
						b := 1 + (g*7+it*5)%len(xs)
						lo := (g * 11) % (len(xs) - b + 1)
						if err := p.PredictBatchInto(context.Background(), xs[lo:lo+b], k, false, &res); err != nil {
							t.Error(err)
							return
						}
						for i := range res.IDs {
							if !eqIDs(res.IDs[i], want[lo+i]) || !eqScores(res.Scores[i], wantScores[lo+i]) {
								t.Errorf("caller %d, batch [%d,%d): element %d = %v, want %v", g, lo, lo+b, lo+i, res.IDs[i], want[lo+i])
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestExactBatchZeroAllocs: once a pooled state's exact scratch has grown,
// an exact PredictBatchInto that runs inline (one worker) allocates
// nothing, up to and past the sub-batch cap.
func TestExactBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocations and drops pooled items")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n, xs, _ := trainedNet(t, 600)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, b := range []int{1, 8, n.exactBatchCap() + 1} {
		batch := cycle(xs, b)
		var res BatchResults
		for i := 0; i < 3; i++ {
			if err := p.PredictBatchInto(ctx, batch, 5, false, &res); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := p.PredictBatchInto(ctx, batch, 5, false, &res); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state exact PredictBatchInto of %d made %.0f allocs/op, want 0", b, allocs)
		}
	}
}

// TestEvaluateMatchesPerElementValues: Evaluate and the training loop's
// evalP1, both batch-major now, reproduce the values recorded from the
// per-element pass (P@k sums per worker, so each thread count has its
// own rounding). P@5 was re-recorded when the trained net's weight
// moments moved to bfloat16 (0.1615… at both thread counts before).
func TestEvaluateMatchesPerElementValues(t *testing.T) {
	n, _, _ := trainedNet(t, 128)
	ds := tinyDataset(t, 128)
	for _, c := range []struct {
		threads    int
		p1, p3, p5 float64
	}{
		{1, 0.3675, 0.2108333333333331, 0.1610000000000006},
		{3, 0.3675, 0.21083333333333318, 0.16099999999999975},
	} {
		r, err := n.Evaluate(ds.Test, 0, c.threads, 1, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		if r.N != 400 || r.P1 != c.p1 || r.PAtK[3] != c.p3 || r.PAtK[5] != c.p5 {
			t.Errorf("threads %d: N %d P@1 %v P@3 %v P@5 %v, want 400 %v %v %v", c.threads, r.N, r.P1, r.PAtK[3], r.PAtK[5], c.p1, c.p3, c.p5)
		}
	}
	states := make([]*elemState, 2)
	for i := range states {
		st, err := newElemState(n, 1, i)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = st
	}
	if got := n.evalP1(ds.Test, evalSubset(ds.Test, 300, 5), states); got != 0.36333333333333334 {
		t.Errorf("evalP1 = %v, want 0.36333333333333334", got)
	}
}

// BenchmarkPredictBatchExact measures exact PredictBatchInto on
// benchModel's serving shape (20K features, 128 hidden, 5K classes) at
// batch sizes 1, 8 and 32: ns per element and allocs per call.
func BenchmarkPredictBatchExact(b *testing.B) {
	n := benchModel(b)
	xs := make([]sparse.Vector, 32)
	for i := range xs {
		x := sparse.Vector{Dim: n.cfg.InputDim}
		for j := 0; j < 64; j++ {
			x.Idx = append(x.Idx, int32((i*7919+j*313)%n.cfg.InputDim))
			x.Val = append(x.Val, 1)
		}
		slices.Sort(x.Idx)
		xs[i] = x
	}
	p, err := n.NewPredictor()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, size := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("B=%d", size), func(b *testing.B) {
			var res BatchResults
			if err := p.PredictBatchInto(ctx, xs[:size], 5, false, &res); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.PredictBatchInto(ctx, xs[:size], 5, false, &res); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size), "ns/element")
		})
	}
}
