package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/optim"
	"repro/internal/sampling"
	"repro/internal/sparse"
)

// Tests for the update phase's seam: one replay per touched row (foldRow)
// feeding two consumers, stepFold (local training) and compactFold
// (ExtractDelta, then ApplyDelta).

// foldElem is one synthetic backward contribution: a layer receives
// delta[a]·inVals for every row rows[a], exactly as a batch element's
// record delivers it. w names the worker that ran the element, which the
// replay must not depend on.
type foldElem struct {
	w      int
	rows   []int32
	delta  []float32
	inIds  []int32
	inVals []float32
	inFull bool
}

// injectFoldElems hands elems to the next update as records, in order,
// each carrying gradient for layer li alone: rows and δ in layer li's
// state, the input in the example features (layer 0) or in the previous
// layer's state.
func injectFoldElems(n *Network, li int, elems []foldElem) {
	for _, e := range elems {
		rec := &elemRecord{layers: make([]layerState, len(n.layers)), used: true}
		rec.layers[li] = layerState{ids: e.rows, delta: e.delta}
		if li == 0 {
			rec.x = sparse.Vector{Dim: n.layers[0].in, Idx: e.inIds, Val: e.inVals}
		} else {
			rec.layers[li-1] = layerState{full: e.inFull, ids: e.inIds, vals: e.inVals}
		}
		n.records = append(n.records, rec)
	}
}

// foldTestElems builds one batch's contributions to a layer of the given
// shape, run by `shards` workers: random bulk, plus the constructed cases
// the fold must get right. Deterministic in (seed, shape).
func foldTestElems(seed int64, in, out, shards int, denseRows bool) []foldElem {
	r := rand.New(rand.NewSource(seed))
	pickCols := func(k int) []int32 {
		cols := make([]int32, 0, k)
		for _, c := range r.Perm(in)[:k] {
			cols = append(cols, int32(c))
		}
		slices.Sort(cols)
		return cols
	}
	randVals := func(k int) []float32 {
		v := make([]float32, k)
		for i := range v {
			v[i] = r.Float32() - 0.5
		}
		return v
	}
	// Rows 0..5 are reserved for the constructed cases; bulk uses the rest.
	const reserved = 6
	var elems []foldElem
	for e := 0; e < 4*shards; e++ {
		k := 3 + r.Intn(6)
		rows := make([]int32, 0, 5)
		for _, j := range r.Perm(out - reserved)[:5] {
			rows = append(rows, int32(j+reserved))
		}
		elems = append(elems, foldElem{w: e % shards, rows: rows, delta: randVals(5), inIds: pickCols(k), inVals: randVals(k)})
	}
	last := shards - 1

	// Row 0 is touched by every worker, on overlapping columns.
	shared := pickCols(4)
	for w := 0; w < shards; w++ {
		elems = append(elems, foldElem{w: w, rows: []int32{0}, delta: randVals(1), inIds: shared, inVals: randVals(4)})
	}

	// Row 1: two contributions that cancel to exactly zero on column c0
	// (and on the bias), run by different workers when there are two,
	// while column c1 keeps a non-zero sum. With three workers the last
	// one touches the row too, elsewhere, so the row is a sum of three
	// terms.
	cc := pickCols(3)
	x := randVals(1)[0]
	elems = append(elems,
		foldElem{w: 0, rows: []int32{1}, delta: []float32{1}, inIds: cc[:2], inVals: []float32{x, 0.25}},
		foldElem{w: min(1, last), rows: []int32{1}, delta: []float32{-1}, inIds: cc[:1], inVals: []float32{x}},
	)
	if shards > 2 {
		elems = append(elems, foldElem{w: 2, rows: []int32{1}, delta: []float32{0.5}, inIds: cc[2:], inVals: []float32{0.125}})
	}

	// Row 2 is bias-only: a non-zero delta against an all-zero input.
	elems = append(elems, foldElem{w: last, rows: []int32{2}, delta: []float32{0.75}, inIds: pickCols(2), inVals: []float32{0, 0}})

	// Rows 3 and 4 on worker 0: row 4's element brings columns row 3 never
	// touches, so on a column-union layer most of row 3 stays zero.
	elems = append(elems,
		foldElem{w: 0, rows: []int32{3}, delta: randVals(1), inIds: pickCols(2), inVals: randVals(2)},
		foldElem{w: 0, rows: []int32{4}, delta: randVals(1), inIds: pickCols(7), inVals: randVals(7)},
	)

	// Row 5 through the dense-input form, where the layer can take it (a
	// layer after the first, without a column union).
	if denseRows {
		elems = append(elems, foldElem{w: last, rows: []int32{5}, delta: randVals(1), inVals: randVals(in), inFull: true})
	}
	return elems
}

// requireUpdateStateIdentical compares everything an update phase writes:
// parameters and moments, and the kernel mirror.
func requireUpdateStateIdentical(t *testing.T, a, b *Network, context string) {
	t.Helper()
	requireNetsBitIdentical(t, a, b, context)
	for li := range a.layers {
		la, lb := a.layers[li], b.layers[li]
		if la.mirror == nil {
			continue
		}
		for j := int32(0); int(j) < la.out; j++ {
			for i := int32(0); int(i) < la.in; i++ {
				if math.Float32bits(la.mirror.At(j, i)) != math.Float32bits(lb.mirror.At(j, i)) {
					t.Fatalf("%s: layer %d mirror[%d][%d] differs", context, li, j, i)
				}
				if math.Float32bits(la.mirror.At(j, i)) != math.Float32bits(la.w[j][i]) {
					t.Fatalf("%s: layer %d mirror[%d][%d] is stale against the weights", context, li, j, i)
				}
			}
		}
	}
}

// TestStepFoldMatchesCompactApply is the seam's equivalence proof: stepping
// straight from the folded rows (applyAdamBatch → stepFold) and compacting
// them into a SparseDelta that ApplyDelta then steps must leave weights,
// moments, biases, mirror and the applied-cell count bit-identical — for
// elements run by 1, 2 and 3 workers, for full-width and column-union
// rows with and without a mirror, at several update worker counts.
func TestStepFoldMatchesCompactApply(t *testing.T) {
	const classes = 96
	sampledOut := LayerConfig{
		Size: classes, Activation: ActSoftmax,
		Sampled: true, Hash: lsh.KindSimhash, K: 5, L: 16,
		Strategy: sampling.KindTopK, Beta: 48,
	}
	wide := colTrackThreshold + 100
	configs := map[string]Config{
		// Layer 0: column-union rows + mirror. Layer 1: full-width rows,
		// sampled.
		"hidden-wide": {InputDim: wide, Seed: 11, Layers: []LayerConfig{{Size: 64, Activation: ActReLU}, sampledOut}},
		// Layer 0: full-width rows of a sparse input + mirror.
		"hidden-narrow": {InputDim: 200, Seed: 11, Layers: []LayerConfig{{Size: 64, Activation: ActReLU}, sampledOut}},
		// Layer 0: column-union rows, sampled.
		"flat-wide": {InputDim: wide, Seed: 11, Layers: []LayerConfig{sampledOut}},
	}
	for name, cfg := range configs {
		for shards := 1; shards <= 3; shards++ {
			for _, workers := range []int{1, 2, 3} {
				stepNet, applyNet := mustNet(t, cfg), mustNet(t, cfg)
				for round := 0; round < 3; round++ {
					alpha := stepNet.adam.Alpha(int64(round) + 1)
					const invB = float32(1.0 / 8)
					for li, l := range stepNet.layers {
						denseIn := li > 0 && l.colStamp == nil
						elems := foldTestElems(int64(100*round+li), l.in, l.out, shards, denseIn)
						injectFoldElems(stepNet, li, elems)
						injectFoldElems(applyNet, li, elems)
					}

					before := stepNet.touchedWeights
					stepNet.applyAdamBatch(alpha, invB, workers)
					stepped := stepNet.touchedWeights - before

					d := applyNet.ExtractDelta(nil, workers)
					applied, err := applyNet.ApplyDelta(d, alpha, invB, workers)
					if err != nil {
						t.Fatal(err)
					}
					if stepped != applied || stepped != d.Cells() || stepped == 0 {
						t.Fatalf("%s shards=%d workers=%d round %d: stepFold stepped %d cells, ApplyDelta %d, delta carries %d",
							name, shards, workers, round, stepped, applied, d.Cells())
					}
					for li := range d.Layers {
						requireConstructedCases(t, &d.Layers[li], shards)
					}
				}
				requireUpdateStateIdentical(t, stepNet, applyNet, name)
			}
		}
	}
}

// requireConstructedCases checks that the compacted delta shows the cases
// foldTestElems constructs: row 1's cancelled cell is absent (one surviving
// cell per remaining contribution) and row 2 carries its bias and no cells.
func requireConstructedCases(t *testing.T, ld *LayerDelta, shards int) {
	t.Helper()
	span := func(j int32) (int, float32) {
		r, ok := slices.BinarySearch(ld.Rows, j)
		if !ok {
			t.Fatalf("row %d missing from the compacted delta", j)
		}
		return int(ld.RowOff[r+1] - ld.RowOff[r]), ld.Bias[r]
	}
	wantCells := 1
	if shards > 2 {
		wantCells = 2
	}
	if cells, _ := span(1); cells != wantCells {
		t.Fatalf("row 1 carries %d cells, want %d (the cancelled cell must be skipped)", cells, wantCells)
	}
	if cells, bias := span(2); cells != 0 || bias != 0.75 {
		t.Fatalf("bias-only row 2 carries %d cells and bias %g, want 0 cells and 0.75", cells, bias)
	}
}

// stateHash fingerprints every weight, bias and Adam moment bit.
func stateHash(n *Network) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(f float32) {
		u := math.Float32bits(f)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	for _, l := range n.layers {
		for j := 0; j < l.out; j++ {
			for i := 0; i < l.in; i++ {
				put(l.w[j][i])
				put(l.mW[j][i])
				put(l.vW[j][i])
			}
			put(l.b[j])
			put(l.mB[j])
			put(l.vB[j])
		}
	}
	return h.Sum64()
}

// TestTrainingGoldenHash pins training — weights, biases and moments after
// 40 batches with scheduled rebuilds — to recorded hashes, at 1, 2 and 4
// threads alike. The TopK hash was recorded at one thread from the commit
// before the fold/step update phase replaced extract → CSR → apply
// (c11261e): the update phase may be restructured, its arithmetic may not
// move, and the thread count may not move it either. The vanilla case adds
// randomized retrieval, seeded per batch position. The goldens were
// recorded on amd64; other architectures may fuse multiply-adds and
// legitimately differ.
func TestTrainingGoldenHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64, running on %s", runtime.GOARCH)
	}
	const classes = 128
	ds := deltaTestDataset(t, classes)
	for _, c := range []struct {
		strategy    sampling.Kind
		wantHash    uint64
		wantTouched int64
	}{
		{sampling.KindTopK, 0x42c7d6d0fe0c4d16, 850358},
		{sampling.KindVanilla, 0xb528b0e8cd25c660, 850787},
	} {
		for _, threads := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v/threads=%d", c.strategy, threads), func(t *testing.T) {
				cfg := deltaTestConfig(classes)
				cfg.Layers[1].Strategy = c.strategy
				cfg.RebuildN0 = 10
				n := mustNet(t, cfg)
				tc := TrainConfig{BatchSize: 32, Iterations: 40, Threads: threads, Seed: 9, SyncRebuild: true}
				if _, err := n.Train(ds.Train, ds.Test, tc); err != nil {
					t.Fatal(err)
				}
				if got := stateHash(n); got != c.wantHash || n.touchedWeights != c.wantTouched {
					t.Fatalf("state hash %#x with %d cells stepped, want %#x with %d",
						got, n.touchedWeights, c.wantHash, c.wantTouched)
				}
			})
		}
	}
}

// twoWorkerBatches returns a function that runs one batch's forward and
// backward over two element states (workers 0 and 1, elements
// alternating), leaving the gradient in the records for an update phase.
func twoWorkerBatches(t testing.TB, n *Network, train []dataset.Example, batchSize int) func() {
	t.Helper()
	var states [2]*elemState
	for w := range states {
		st, err := newElemState(n, 99, w)
		if err != nil {
			t.Fatal(err)
		}
		states[w] = st
	}
	next := 0
	return func() {
		for i := 0; i < batchSize; i++ {
			ex := &train[next%len(train)]
			next++
			trainElem(n, states[i%2], i, ex.Features, ex.Labels)
		}
	}
}

// TestUpdatePhaseSteadyStateAllocs pins the update phase's allocation
// budget (the CI allocation gate): once the layer-owned scratch is warm —
// stamp-scan partial lists, the row index, the column union and its
// positions, row buffers, applied counters, CSR chunks, the reused
// SparseDelta — a batch's update allocates only what its handful of
// parallel sections cost (goroutine closures and wait groups), never
// per-row or per-cell scratch.
func TestUpdatePhaseSteadyStateAllocs(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	consumers := map[string]func(n *Network, alpha, invB float32){
		"step": func(n *Network, alpha, invB float32) {
			n.applyAdamBatch(alpha, invB, 2)
		},
		"compact+apply": func(n *Network, alpha, invB float32) {
			n.deltaScratch = n.ExtractDelta(n.deltaScratch, 2)
			if _, err := n.ApplyDelta(n.deltaScratch, alpha, invB, 2); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, update := range consumers {
		n := mustNet(t, deltaTestConfig(classes))
		runBatch := twoWorkerBatches(t, n, ds.Train, 32)
		const invB = float32(1.0 / 32)
		// The same 8 batches cycle, so the scratch high-water marks are
		// reached during warm-up.
		const warm, measured = 16, 8
		var allocs uint64
		for b := 0; b < warm+measured; b++ {
			runBatch()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			update(n, n.adam.Alpha(int64(b)+1), invB)
			runtime.ReadMemStats(&after)
			if b >= warm {
				allocs += after.Mallocs - before.Mallocs
			}
		}
		// Two layers × (row scan, column scan, fold consumer, apply) parallel
		// sections at a few objects each.
		t.Logf("%s: %.1f allocs per warm batch", name, float64(allocs)/measured)
		if perBatch := float64(allocs) / measured; perBatch > 40 {
			t.Fatalf("%s: warm update phase allocated %.1f objects per batch; want <= 40 (no per-row or per-cell scratch)", name, perBatch)
		}
	}
}

// BenchmarkUpdatePhase times both consumers of the fold on one captured
// train_converge-shaped batch (Delicious-200K at 0.03: 23.5K features into
// 128 hidden units into 6.2K classes, batch 128 over two workers, both
// layers), reporting ns per stepped cell. The fold only reads the records,
// so re-arming them replays the same batch every iteration.
func BenchmarkUpdatePhase(b *testing.B) {
	ds, err := dataset.Generate(dataset.Delicious200K(0.03, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		InputDim: ds.InputDim,
		Seed:     1,
		Adam:     optim.NewAdam(1e-3),
		Layers: []LayerConfig{
			{Size: 128, Activation: ActReLU},
			{
				Size: ds.NumClasses, Activation: ActSoftmax, Sampled: true, MinCount: 2,
				Hash: lsh.KindSimhash, K: 7, L: 30, Beta: ds.NumClasses / 20,
			},
		},
	}
	consumers := []struct {
		name   string
		update func(n *Network, alpha, invB float32) int64
	}{
		{"step", func(n *Network, alpha, invB float32) int64 {
			before := n.touchedWeights
			n.applyAdamBatch(alpha, invB, 2)
			return n.touchedWeights - before
		}},
		{"compact+apply", func(n *Network, alpha, invB float32) int64 {
			n.deltaScratch = n.ExtractDelta(n.deltaScratch, 2)
			cells, err := n.ApplyDelta(n.deltaScratch, alpha, invB, 2)
			if err != nil {
				b.Fatal(err)
			}
			return cells
		}},
	}
	for _, c := range consumers {
		b.Run(c.name, func(b *testing.B) {
			n, err := NewNetwork(cfg)
			if err != nil {
				b.Fatal(err)
			}
			const batchSize = 128
			const invB = float32(1.0 / batchSize)
			runBatch := twoWorkerBatches(b, n, ds.Train, batchSize)
			// A few real steps first, through the consumer under test: the
			// moments and the zero pattern of the captured batch are then a
			// trained network's, and the consumer's scratch is warm.
			for s := int64(1); s <= 3; s++ {
				runBatch()
				c.update(n, n.adam.Alpha(s), invB)
			}
			runBatch()
			alpha := n.adam.Alpha(4)
			var cells int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, rec := range n.records {
					rec.used = true
				}
				cells += c.update(n, alpha, invB)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
		})
	}
}
