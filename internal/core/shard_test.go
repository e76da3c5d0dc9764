package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/optim"
	"repro/internal/sparse"
)

// denseGrad is the test-side reference for the sharded gradient store: a
// dense [out][in] accumulator plus bias per layer that replays every
// contribution in the order it is handed over — g[j][i] += δ_j·x_i, the
// same cell update in the same order a single shard (or an id-shard's
// record replay) performs.
type denseGrad struct {
	w [][][]float32 // [layer][row][col]
	b [][]float32
	// touched marks rows that received any non-zero δ — the rows the
	// sharded path claims.
	touched [][]bool
}

func newDenseGrad(n *Network) *denseGrad {
	g := &denseGrad{}
	for _, l := range n.layers {
		rows := make([][]float32, l.out)
		for j := range rows {
			rows[j] = make([]float32, l.in)
		}
		g.w = append(g.w, rows)
		g.b = append(g.b, make([]float32, l.out))
		g.touched = append(g.touched, make([]bool, l.out))
	}
	return g
}

// add replays one layer contribution: δ over the active rows (every row
// when full, else ids aligned with delta) against the layer input.
func (g *denseGrad) add(li int, full bool, ids []int32, delta []float32, inIds []int32, inVals []float32, inFull bool) {
	for a, dj := range delta {
		j := int32(a)
		if !full {
			j = ids[a]
		}
		if dj == 0 {
			continue
		}
		g.touched[li][j] = true
		row := g.w[li][j]
		if inFull {
			for i, x := range inVals {
				row[i] += dj * x
			}
		} else {
			for t, i := range inIds {
				row[i] += dj * inVals[t]
			}
		}
		g.b[li][j] += dj
	}
}

// addElem replays one element's backward pass from its worker state: each
// layer's active rows and δ against the previous layer's activations (the
// example's features for layer 0).
func (g *denseGrad) addElem(st *elemState, x sparse.Vector) {
	inIds, inVals, inFull := x.Idx, x.Val, false
	for li := range st.layers {
		ls := &st.layers[li]
		g.add(li, ls.full, ls.ids, ls.delta[:len(ls.vals)], inIds, inVals, inFull)
		inIds, inVals, inFull = ls.ids, ls.vals, ls.full
	}
}

// addRecord replays one BatchSync record.
func (g *denseGrad) addRecord(rec *elemRecord) {
	for li := range rec.layers {
		lr := &rec.layers[li]
		g.add(li, lr.full, lr.ids, lr.delta, lr.inIds, lr.inVals, lr.inFull)
	}
}

// delta compacts the accumulator to ExtractDelta's contract — touched rows
// ascending, each row's non-zero cells by ascending column, every touched
// row's bias — and resets it for the next batch.
func (g *denseGrad) delta() *SparseDelta {
	d := &SparseDelta{Layers: make([]LayerDelta, len(g.w))}
	for li, rows := range g.w {
		ld := &d.Layers[li]
		ld.RowOff = []int32{0}
		for j, row := range rows {
			if !g.touched[li][j] {
				continue
			}
			for i, v := range row {
				if v != 0 {
					ld.Cols = append(ld.Cols, int32(i))
					ld.Vals = append(ld.Vals, v)
				}
			}
			ld.Rows = append(ld.Rows, int32(j))
			ld.RowOff = append(ld.RowOff, int32(len(ld.Cols)))
			ld.Bias = append(ld.Bias, g.b[li][j])
			clear(row)
			g.b[li][j] = 0
			g.touched[li][j] = false
		}
	}
	return d
}

// requireDeltasBitIdentical compares two deltas' structure and every value
// bit for bit.
func requireDeltasBitIdentical(t *testing.T, got, want *SparseDelta, context string) {
	t.Helper()
	if len(got.Layers) != len(want.Layers) {
		t.Fatalf("%s: %d layers, want %d", context, len(got.Layers), len(want.Layers))
	}
	bits := func(v []float32) []uint32 {
		out := make([]uint32, len(v))
		for i, f := range v {
			out[i] = math.Float32bits(f)
		}
		return out
	}
	for li := range want.Layers {
		g, w := &got.Layers[li], &want.Layers[li]
		switch {
		case !slices.Equal(g.Rows, w.Rows):
			t.Fatalf("%s: layer %d rows %v, want %v", context, li, g.Rows, w.Rows)
		case !slices.Equal(g.RowOff, w.RowOff) || !slices.Equal(g.Cols, w.Cols):
			t.Fatalf("%s: layer %d cell structure differs", context, li)
		case !slices.Equal(bits(g.Vals), bits(w.Vals)):
			t.Fatalf("%s: layer %d gradient values differ", context, li)
		case !slices.Equal(bits(g.Bias), bits(w.Bias)):
			t.Fatalf("%s: layer %d bias gradients differ", context, li)
		}
	}
}

// TestShardedBackwardMatchesReference: in ModeHogwild at one worker, the
// delta folded from the per-worker shards must equal the dense reference
// replaying each element's (active rows, δ, layer input) in element order,
// bit for bit, batch after batch as the weights move. Layer 0 exercises the
// sparse-column shard storage (wide fan-in, sparse input), layer 1 the
// dense arena rows (narrow fan-in, dense input).
func TestShardedBackwardMatchesReference(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	n := mustNet(t, deltaTestConfig(classes, optim.ModeHogwild))
	st := mustState(t, n, 99)
	ref := newDenseGrad(n)

	const batchSize = 32
	for b := 0; b < 4; b++ {
		batch := ds.Train[b*batchSize : (b+1)*batchSize]
		n.beginBatch()
		for i := range batch {
			n.forwardElem(st, batch[i].Features, batch[i].Labels, modeTrain)
			n.backwardElem(st, batch[i].Features, batch[i].Labels, nil)
			ref.addElem(st, batch[i].Features)
		}
		got := n.ExtractDelta(nil, 3)
		if got.Cells() == 0 {
			t.Fatal("empty delta; test is vacuous")
		}
		requireDeltasBitIdentical(t, got, ref.delta(), fmt.Sprintf("batch %d", b))
		if _, err := n.ApplyDelta(got, n.adam.Alpha(int64(b)+1), 1.0/batchSize, 3); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchSyncShardedMatchesReference: the id-sharded BatchSync replay
// must extract the dense reference's delta — the captured records replayed
// in record order — bit for bit at any worker count.
func TestBatchSyncShardedMatchesReference(t *testing.T) {
	const classes = 96
	ds := deltaTestDataset(t, classes)
	const batchSize = 24
	batch := ds.Train[:batchSize]
	for _, workers := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			n := mustNet(t, deltaTestConfig(classes, optim.ModeBatchSync))
			st := mustState(t, n, 42)
			records := make([]*elemRecord, batchSize)
			for i := range records {
				records[i] = &elemRecord{}
			}
			n.beginBatch()
			ref := newDenseGrad(n)
			for i := range batch {
				n.forwardElem(st, batch[i].Features, batch[i].Labels, modeTrain)
				n.backwardElem(st, batch[i].Features, batch[i].Labels, records[i])
				ref.addRecord(records[i])
			}
			n.accumulateBatchSync(records, workers)
			got := n.ExtractDelta(nil, 2)
			if got.Cells() == 0 {
				t.Fatal("empty delta; test is vacuous")
			}
			requireDeltasBitIdentical(t, got, ref.delta(), "BatchSync replay")
		})
	}
}

// TestShardedHogwildStressWithRebuilds drives the sharded backward with
// many workers while background table rebuilds are continuously in flight
// — the -race stress the CI race step runs. Correctness here is "no race
// reports and the network still learns to extract non-empty deltas"; the
// numeric equivalence is covered by the bitwise tests above.
func TestShardedHogwildStressWithRebuilds(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	for _, mode := range []optim.UpdateMode{optim.ModeHogwild, optim.ModeBatchSync} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := deltaTestConfig(classes, mode)
			cfg.RebuildN0 = 5 // keep shadow builds overlapping the batches
			cfg.RebuildLambda = 0.01
			n := mustNet(t, cfg)
			res, err := n.Train(ds.Train, ds.Test, TrainConfig{
				BatchSize:  32,
				Iterations: 40,
				Threads:    8,
				Seed:       3,
			})
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			if res.TouchedPerIter == 0 {
				t.Fatal("no gradient cells extracted under concurrency")
			}
			if res.Rebuilds == 0 {
				t.Fatal("no rebuilds happened; stress test is vacuous")
			}
		})
	}
}

// TestShardSetReuseAcrossTrainCalls: repeated Train calls on one network
// must reuse the per-worker shard sets rather than grow the registry.
func TestShardSetReuseAcrossTrainCalls(t *testing.T) {
	const classes = 64
	ds := deltaTestDataset(t, classes)
	n := mustNet(t, deltaTestConfig(classes, optim.ModeHogwild))
	tc := TrainConfig{BatchSize: 16, Iterations: 4, Threads: 3, Seed: 5}
	for i := 0; i < 3; i++ {
		if _, err := n.Train(ds.Train, ds.Test, tc); err != nil {
			t.Fatalf("Train %d: %v", i, err)
		}
	}
	n.shardMu.Lock()
	defer n.shardMu.Unlock()
	if len(n.workerShards) != 3 {
		t.Fatalf("expected 3 worker shard sets after 3 runs at 3 threads, got %d", len(n.workerShards))
	}
	for li := range n.layerShards {
		if len(n.layerShards[li]) != 3 {
			t.Fatalf("layer %d has %d registered shards, want 3", li, len(n.layerShards[li]))
		}
	}
}
