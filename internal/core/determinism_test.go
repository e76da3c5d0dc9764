package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/sparse"
)

// predictSampled is one sampled prediction on p, seeded when opts names
// a seed.
func predictSampled(p *Predictor, x sparse.Vector, k int, opts ...PredictOpts) ([]int32, []float32, error) {
	return p.TopKWithScoresInto(context.Background(), x, k, true, nil, nil, opts...)
}

// seededPredict is a tiny helper: one seeded sampled prediction.
func seededPredict(t testing.TB, p *Predictor, x sparse.Vector, k int, seed uint64) ([]int32, []float32) {
	t.Helper()
	ids, scores, err := predictSampled(p, x, k, PredictOpts{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ids, scores
}

// TestPredictSampledSeededDeterministic is the tentpole contract: same
// input + same seed ⇒ bitwise-identical ids and scores, no matter which
// pooled state serves the call, what traffic came before, or which
// Predictor instance is used.
func TestPredictSampledSeededDeterministic(t *testing.T) {
	n, xs, _ := trainedNet(t, 128)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	const k, seed = 5, 7
	want := make([][]int32, 20)
	wantScores := make([][]float32, 20)
	for i := range want {
		want[i], wantScores[i] = seededPredict(t, p, xs[i], k, seed)
	}

	// Drift the pooled states with unseeded traffic, then replay.
	for i := 0; i < 50; i++ {
		if _, _, err := predictSampled(p, xs[i%len(xs)], k); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		gotIDs, gotScores := seededPredict(t, p, xs[i], k, seed)
		if !eqIDs(want[i], gotIDs) || !eqScores(wantScores[i], gotScores) {
			t.Fatalf("seeded replay diverged at example %d after unseeded traffic: got %v/%v want %v/%v",
				i, gotIDs, gotScores, want[i], wantScores[i])
		}
	}

	// A completely fresh Predictor over the same network agrees too.
	fresh, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		gotIDs, gotScores := seededPredict(t, fresh, xs[i], k, seed)
		if !eqIDs(want[i], gotIDs) || !eqScores(wantScores[i], gotScores) {
			t.Fatalf("fresh predictor diverged at example %d", i)
		}
	}

	// The seed must actually steer the draw: across 20 examples, seed 8
	// must differ from seed 7 somewhere (vanilla probe order changes).
	differs := false
	for i := range want {
		gotIDs, _ := seededPredict(t, p, xs[i], k, seed+1)
		if !eqIDs(want[i], gotIDs) {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 returned identical ids on all 20 examples — seed is not reaching the strategies")
	}
}

// TestPredictSampledSeededConcurrent hammers one shared Predictor with
// mixed seeded and unseeded traffic from many goroutines; every seeded
// result must match the golden single-threaded answer. Run under -race
// this is the determinism-under-concurrency proof.
func TestPredictSampledSeededConcurrent(t *testing.T) {
	n, xs, _ := trainedNet(t, 128)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	const nGolden = 8
	goldenIDs := make([][]int32, nGolden)
	goldenScores := make([][]float32, nGolden)
	for i := 0; i < nGolden; i++ {
		goldenIDs[i], goldenScores[i] = seededPredict(t, p, xs[i], k, uint64(100+i))
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
			for it := 0; it < iters; it++ {
				i := (g*13 + it) % nGolden
				if it%3 == 2 {
					// Interleave unseeded traffic to drift pool state.
					if _, _, err := predictSampled(p, xs[(g+it)%len(xs)], k); err != nil {
						t.Errorf("unseeded: %v", err)
						return
					}
					continue
				}
				ids, scores, err := predictSampled(p, xs[i], k, PredictOpts{Seed: uint64(100 + i)})
				if err != nil {
					t.Errorf("seeded: %v", err)
					return
				}
				if !eqIDs(goldenIDs[i], ids) || !eqScores(goldenScores[i], scores) {
					t.Errorf("goroutine %d iter %d: seeded result diverged from golden on example %d",
						g, it, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPredictSampledSeededSaveLoadRoundTrip: every process that loads the
// same SaveModel bytes gives bitwise-identical seeded sampled predictions
// — the property that makes seeded responses cacheable across serving
// restarts and replicas. (The training process itself is not pinned to
// its saved copy: its live tables reflect the weights at the last
// scheduled rebuild, and reservoir streams advance across rebuilds by
// design, whereas LoadModel rebuilds from the final weights with fresh
// streams — deterministically, which is what this test verifies.)
func TestPredictSampledSeededSaveLoadRoundTrip(t *testing.T) {
	n, xs, _ := trainedNet(t, 128)
	var buf bytes.Buffer
	if err := n.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	m1, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m1.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m2.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	// Drift one replica's pool with unseeded traffic before comparing.
	for i := 0; i < 30; i++ {
		if _, _, err := predictSampled(p1, xs[i], 5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		wantIDs, wantScores := seededPredict(t, p1, xs[i], 5, 42)
		gotIDs, gotScores := seededPredict(t, p2, xs[i], 5, 42)
		if !eqIDs(wantIDs, gotIDs) || !eqScores(wantScores, gotScores) {
			t.Fatalf("two loads of one model file diverged at example %d: got %v want %v",
				i, gotIDs, wantIDs)
		}
	}
}

// TestPredictBatchIntoSeeded pins the batch contract: repeated seeded
// batches are identical, a one-element seeded batch matches the seeded
// single-example path, and unseeded batches are untouched.
func TestPredictBatchIntoSeeded(t *testing.T) {
	n, xs, _ := trainedNet(t, 128)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const k, seed = 4, 99
	batch := xs[:100]

	var first, second BatchResults
	if err := p.PredictBatchInto(ctx, batch, k, true, &first, PredictOpts{Seed: seed}); err != nil {
		t.Fatal(err)
	}
	// Drift pool state, then rerun.
	for i := 0; i < 30; i++ {
		if _, _, err := predictSampled(p, xs[i], k); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.PredictBatchInto(ctx, batch, k, true, &second, PredictOpts{Seed: seed}); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !eqIDs(first.IDs[i], second.IDs[i]) || !eqScores(first.Scores[i], second.Scores[i]) {
			t.Fatalf("seeded batch not reproducible at element %d", i)
		}
	}

	// Element 0 of a seeded batch uses the request seed itself.
	single, singleScores := seededPredict(t, p, batch[0], k, seed)
	if !eqIDs(single, first.IDs[0]) || !eqScores(singleScores, first.Scores[0]) {
		t.Fatalf("one-element equivalence broke: batch[0] %v/%v, single %v/%v",
			first.IDs[0], first.Scores[0], single, singleScores)
	}
}

// TestSeededCallsDoNotPerturbUnseededPool pins the quarantine: seeded
// calls draw from a separate state pool, so a fresh Predictor's eagerly
// built worker-0 state keeps its pristine streams through any amount of
// seeded traffic — the first unseeded sampled call still matches the
// pre-redesign worker-0 draw bitwise.
func TestSeededCallsDoNotPerturbUnseededPool(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops Put items so the worker-0 state is not retained")
	}
	n, xs, _ := trainedNet(t, 128)
	const k = 5
	wantIDs, wantScores := preRedesignPredict(t, n, xs[0], k, modeEvalSampled)
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		seededPredict(t, p, xs[i], k, uint64(i))
	}
	gotIDs, gotScores, err := predictSampled(p, xs[0], k)
	if err != nil {
		t.Fatal(err)
	}
	if !eqIDs(wantIDs, gotIDs) || !eqScores(wantScores, gotScores) {
		t.Fatalf("seeded traffic perturbed the unseeded worker-0 stream: got %v/%v want %v/%v",
			gotIDs, gotScores, wantIDs, wantScores)
	}
}

// BenchmarkPredictSampledSeeded tracks the cost of the reseed path next
// to the pooled unseeded baseline (BenchmarkPredictSampled): the reseed
// itself is allocation-free, so allocs/op should match the pooled path.
func BenchmarkPredictSampledSeeded(b *testing.B) {
	n, xs, _ := trainedNet(b, 512)
	p, err := n.NewPredictor()
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := predictSampled(p, xs[0], 5, PredictOpts{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := predictSampled(p, xs[i%len(xs)], 5, PredictOpts{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
