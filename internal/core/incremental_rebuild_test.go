package core

import (
	"bytes"
	"testing"

	"repro/internal/lsh"
)

// TestIncrementalRebuildMatchesFullEveryGeneration is the dirty-row
// path's equivalence proof: after each round of weight drift, an
// incremental sync rebuild (re-hash only drifted rows, re-insert the rest
// from the code memo) must produce tables bucket-for-bucket equal to a
// full from-scratch hash of the live weights at the same generation — at
// every generation, for every family that backs a sampled layer.
//
// Drift arrives three ways. Real training exercises the path end to end
// but may touch every row between rebuilds (at this size it does, at any
// thread count), so reuse is proven on constructed drift: a synthetic
// SparseDelta through the public ApplyDelta (as the tables experiment
// does) and a synthetic gradient through the shards and applyAdamBatch —
// the local training path's stepFold — each moving a known subset of rows
// and leaving exactly that subset dirty.
func TestIncrementalRebuildMatchesFullEveryGeneration(t *testing.T) {
	classes := 256
	ds := tinyDataset(t, classes)
	for _, hash := range []lsh.Kind{lsh.KindSimhash, lsh.KindDWTA, lsh.KindDOPH} {
		t.Run(hash.String(), func(t *testing.T) {
			cfg := tinyConfig(classes)
			cfg.Layers[1].Hash = hash
			cfg.Layers[1].BucketSize = 4 // force reservoir churn so order/code drift shows
			cfg.RebuildN0 = 1 << 30      // rebuilds driven manually below
			n, err := NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			l := n.layers[1]
			// rebuildAndCompare runs one incremental rebuild, checks it
			// against a from-scratch build, and returns the rows it
			// re-hashed and reused.
			rebuildAndCompare := func() (rehashed, reused int64) {
				t.Helper()
				h0, u0 := n.RebuildRowCounts()
				n.RebuildTables(2) // incremental: dirty rows only
				incr := l.Tables()
				full := incr.Shadow(n.rebuildGen)
				l.insertAll(full, func(j int) []float32 { return l.w[j] }, 2)
				if !incr.Equal(full) {
					t.Fatalf("generation %d: incremental rebuild diverged from full from-scratch build", n.rebuildGen)
				}
				h1, u1 := n.RebuildRowCounts()
				return h1 - h0, u1 - u0
			}
			requireDrift := func(via string, drifted int) {
				t.Helper()
				rehashed, reused := rebuildAndCompare()
				if rehashed != int64(drifted) || reused != int64(classes-drifted) {
					t.Fatalf("drift via %s moved %d of %d rows, but the rebuild re-hashed %d and reused %d",
						via, drifted, classes, rehashed, reused)
				}
			}

			for g := 0; g < 3; g++ {
				if _, err := n.Train(ds.Train, ds.Test, TrainConfig{
					Iterations: 6, BatchSize: 32, Seed: uint64(g + 1), EvalEvery: 0,
				}); err != nil {
					t.Fatal(err)
				}
				rebuildAndCompare()

				// Every 5th row (offset by generation) through ApplyDelta.
				d := &SparseDelta{Layers: make([]LayerDelta, len(n.layers))}
				d.Layers[0].RowOff = []int32{0}
				out := &d.Layers[1]
				out.RowOff = []int32{0}
				for j := g; j < classes; j += 5 {
					out.Rows = append(out.Rows, int32(j))
					out.Cols = append(out.Cols, int32(j%l.in))
					out.Vals = append(out.Vals, 0.5)
					out.Bias = append(out.Bias, 0)
					out.RowOff = append(out.RowOff, int32(len(out.Cols)))
				}
				if _, err := n.ApplyDelta(d, 0.05, 1, 2); err != nil {
					t.Fatal(err)
				}
				requireDrift("ApplyDelta", len(out.Rows))

				// Every 7th row through two shards and stepFold; row g+1
				// only collects a bias gradient, which must not dirty it.
				n.beginBatch()
				var rows []int32
				for j := g; j < classes; j += 7 {
					rows = append(rows, int32(j))
				}
				delta := make([]float32, len(rows))
				for a := range delta {
					delta[a] = 0.5
				}
				injectFoldElems(n, 1, []foldElem{
					{w: 0, rows: rows[:len(rows)/2], delta: delta[:len(rows)/2], inIds: []int32{3, 9}, inVals: []float32{1, -1}},
					{w: 1, rows: rows[len(rows)/2:], delta: delta[len(rows)/2:], inIds: []int32{5}, inVals: []float32{2}},
					{w: 1, rows: []int32{int32(g + 1)}, delta: []float32{0.5}, inIds: []int32{5}, inVals: []float32{0}},
				})
				n.applyAdamBatch(0.05, 1, 2)
				requireDrift("stepFold", len(rows))
			}
		})
	}
}

// TestIncrementalAndFullRebuildTrainIdentically pins the stronger
// property the per-generation equivalence implies: because the tables
// are bit-identical at every rebuild, the sampled active sets — and so
// the gradients and the weights — of a single-threaded training run are
// unaffected by which rebuild path is configured.
func TestIncrementalAndFullRebuildTrainIdentically(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	run := func(full bool) *Network {
		cfg := tinyConfig(classes)
		cfg.FullRebuild = full
		cfg.RebuildN0 = 5
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Train(ds.Train, ds.Test, TrainConfig{
			Iterations: 30, BatchSize: 32, Threads: 1, Seed: 9, EvalEvery: 0, SyncRebuild: true,
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	incr, full := run(false), run(true)
	if !incr.layers[1].Tables().Equal(full.layers[1].Tables()) {
		t.Fatal("incremental and full-rebuild runs ended with different tables")
	}
	for j := 0; j < classes; j++ {
		wi, wf := incr.layers[1].w[j], full.layers[1].w[j]
		for i := range wi {
			if wi[i] != wf[i] {
				t.Fatalf("neuron %d weight %d diverged between rebuild paths: %g vs %g", j, i, wi[i], wf[i])
			}
		}
	}
	// (With only 128 output rows the whole layer can drift between
	// rebuilds, so no reuse is asserted here — the per-generation test
	// above covers that; this test's claim is bit-identical training.)
	if _, reused := full.RebuildRowCounts(); reused != 0 {
		t.Fatalf("FullRebuild run reported %d reused rows", reused)
	}
}

// TestIncrementalRebuildAfterRestore: a bulk weight restore invalidates
// every memoized code; the next rebuild must re-hash the whole layer and
// still match a from-scratch build.
func TestIncrementalRebuildAfterRestore(t *testing.T) {
	classes := 256
	ds := tinyDataset(t, classes)
	cfg := tinyConfig(classes)
	cfg.RebuildN0 = 1 << 30
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 10, Seed: 4, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Drift the weights past the save, then restore: the restore path
	// must mark all rows dirty so stale memo codes cannot survive.
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 10, Seed: 5, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.Load(&buf); err != nil {
		t.Fatal(err)
	}
	l := n.layers[1]
	cur := l.Tables()
	full := cur.Shadow(n.rebuildGen)
	l.insertAll(full, func(j int) []float32 { return l.w[j] }, 2)
	if !cur.Equal(full) {
		t.Fatal("tables after restore diverged from a from-scratch build of the restored weights")
	}
}

// TestRebuildSteadyStateAllocs pins the allocation budget of a
// steady-state incremental rebuild (the CI allocation gate): after the
// first rebuild warms the per-layer scratch (dirty list, dirty snapshot,
// code buffer), each further rebuild allocates only the fresh shadow
// table set itself — O(L) small objects plus its arena slab — never
// O(rows) code scratch or O(rows*dim) snapshots.
func TestRebuildSteadyStateAllocs(t *testing.T) {
	classes := 512
	ds := tinyDataset(t, classes)
	cfg := tinyConfig(classes)
	cfg.RebuildN0 = 1 << 30
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 8, Seed: 2, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	n.RebuildTables(1) // warm the rebuild scratch
	allocs := testing.AllocsPerRun(5, func() { n.RebuildTables(1) })
	// Budget: the shadow Table (struct, arena, one slab, L insert RNGs)
	// for the sampled layer, plus small constant overhead. L=16 here, so
	// anything O(rows)=512 would blow far past the bound.
	if allocs > 64 {
		t.Fatalf("steady-state rebuild allocated %.0f objects; want <= 64 (O(L) shadow-table setup only)", allocs)
	}
}
