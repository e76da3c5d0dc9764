package core

import (
	"fmt"
	"math"
	"testing"
)

// denseGrad is the test-side reference for the update phase's replay: a
// dense [out][in] accumulator plus bias per layer that adds every
// contribution in the order it is handed over — g[j][i] += δ_j·x_i, the
// same cell update in the same order the fold's row replay performs.
type denseGrad struct {
	w [][][]float32 // [layer][row][col]
	b [][]float32
	// touched marks rows that received any non-zero δ — the rows the fold
	// replays.
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

// addRecord adds one element's backward pass from its record: each
// layer's active rows and δ against the layer input (the previous layer's
// activations, or the example's features for layer 0).
func (g *denseGrad) addRecord(rec *elemRecord) {
	for li := range rec.layers {
		ls := &rec.layers[li]
		inIds, inVals, inFull := rec.input(li)
		g.add(li, ls.full, ls.ids, ls.delta, inIds, inVals, inFull)
	}
}

// cells drains the accumulator into its nonzero cells by (layer, neuron,
// input) and every touched neuron's bias by (layer, neuron, -1), as float
// bits, and resets it for the next batch.
func (g *denseGrad) cells() map[[3]int32]uint32 {
	out := make(map[[3]int32]uint32)
	for li, rows := range g.w {
		for j, row := range rows {
			if !g.touched[li][j] {
				continue
			}
			for i, v := range row {
				if v != 0 {
					out[[3]int32{int32(li), int32(j), int32(i)}] = math.Float32bits(v)
				}
			}
			out[[3]int32{int32(li), int32(j), -1}] = math.Float32bits(g.b[li][j])
			clear(row)
			g.b[li][j] = 0
			g.touched[li][j] = false
		}
	}
	return out
}

// deltaCells maps an extracted delta to denseGrad.cells' form, whatever
// orientation each layer stores.
func deltaCells(n *Network, d *SparseDelta) map[[3]int32]uint32 {
	out := make(map[[3]int32]uint32)
	for li := range d.Layers {
		ld, l := &d.Layers[li], n.layers[li]
		w := ld.width()
		for r, row := range ld.Rows {
			for u, v := range ld.Vals[r*w : (r+1)*w] {
				col := int32(u)
				if ld.Cols != nil {
					col = ld.Cols[u]
				}
				j, i := row, col
				if l.inputMajor {
					j, i = col, row
				}
				if v != 0 {
					out[[3]int32{int32(li), j, i}] = math.Float32bits(v)
				}
			}
		}
		for k, j := range ld.Neurons {
			out[[3]int32{int32(li), j, -1}] = math.Float32bits(ld.Bias[k])
		}
	}
	return out
}

// requireDeltasBitIdentical compares a delta's nonzero cells and biases
// with the reference's, bit for bit.
func requireDeltasBitIdentical(t *testing.T, got, want map[[3]int32]uint32, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells and biases, want %d", context, len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("%s: (layer, neuron, input) %v = %#x, want %#x", context, k, g, w)
		}
	}
}

// TestReplayMatchesReference: the delta replayed from a batch's records
// must equal the dense reference adding each element's (active rows, δ,
// layer input) in element order, bit for bit, at any worker count and
// batch after batch as the weights move. Layer 0 exercises the
// column-union rows (wide fan-in, sparse input), layer 1 the full-width
// rows (narrow fan-in, dense input).
func TestReplayMatchesReference(t *testing.T) {
	const classes = 96
	ds := deltaTestDataset(t, classes)
	const batchSize = 24
	for _, workers := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			n := mustNet(t, deltaTestConfig(classes))
			st := mustState(t, n, 42)
			ref := newDenseGrad(n)
			for b := 0; b < 3; b++ {
				batch := ds.Train[b*batchSize : (b+1)*batchSize]
				for i := range batch {
					ref.addRecord(trainElem(n, st, 0, int64(b), i, batch[i].Features, batch[i].Labels))
				}
				got := n.ExtractDelta(nil, workers)
				if got.Cells() == 0 {
					t.Fatal("empty delta; test is vacuous")
				}
				requireDeltasBitIdentical(t, deltaCells(n, got), ref.cells(), fmt.Sprintf("batch %d", b))
				if _, err := n.ApplyDelta(got, n.adam.Alpha(int64(b)+1), 1.0/batchSize, workers); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestTrainingStressWithRebuilds drives training with many workers while
// background table rebuilds are continuously in flight — the -race stress
// the CI race step runs. Correctness here is "no race reports and the
// network still extracts non-empty deltas"; the numeric equivalence is
// covered by the bitwise tests above.
func TestTrainingStressWithRebuilds(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	cfg := deltaTestConfig(classes)
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
}

// TestRecordsReuseAcrossTrainCalls: repeated Train calls on one network
// must reuse the batch-position records rather than grow them.
func TestRecordsReuseAcrossTrainCalls(t *testing.T) {
	const classes = 64
	ds := deltaTestDataset(t, classes)
	n := mustNet(t, deltaTestConfig(classes))
	tc := TrainConfig{BatchSize: 16, Iterations: 4, Threads: 3, Seed: 5}
	for i := 0; i < 3; i++ {
		if _, err := n.Train(ds.Train, ds.Test, tc); err != nil {
			t.Fatalf("Train %d: %v", i, err)
		}
	}
	if len(n.records) != tc.BatchSize {
		t.Fatalf("%d records after 3 runs at batch %d, want %d", len(n.records), tc.BatchSize, tc.BatchSize)
	}
	for k, rec := range n.records {
		if rec.used {
			t.Fatalf("record %d still holds gradient after its batch's update", k)
		}
	}
}
