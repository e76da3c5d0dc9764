package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/sampling"
	"repro/internal/sparse"
)

// deltaTestDataset builds a small task of wide sparse features: the
// input-major first layer folds one row per feature present, and the
// sampled output layer full-width rows of its dense input.
func deltaTestDataset(t testing.TB, classes int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Profile{
		Name:        "delta-test",
		FeatureDim:  colTrackThreshold + 100,
		NumClasses:  classes,
		TrainSize:   512,
		TestSize:    64,
		AvgFeatures: 20,
		AvgLabels:   2,
		ProtoNNZ:    12,
		NoiseFrac:   0.1,
		LabelSkew:   1.5,
		Seed:        7,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds
}

func deltaTestConfig(classes int) Config {
	return Config{
		InputDim: colTrackThreshold + 100,
		Seed:     11,
		Layers: []LayerConfig{
			{Size: 64, Activation: ActReLU},
			{
				Size: classes, Activation: ActSoftmax,
				Sampled: true, Hash: lsh.KindSimhash, K: 5, L: 16,
				// TopK retrieval is deterministic in (input, tables,
				// weights), which keeps hand-driven batches comparable
				// without aligning RNG stream positions.
				Strategy: sampling.KindTopK, Beta: 48,
			},
		},
	}
}

// trainElem runs one element's forward and backward pass into batch
// position k's record, as a training worker does, and returns the record.
func trainElem(n *Network, st *elemState, k int, x sparse.Vector, labels []int32) *elemRecord {
	n.ensureRecords(k + 1)
	rec := n.records[k]
	rec.x = x
	n.forward(st, rec.layers, x, labels, modeTrain)
	n.backwardElem(st, rec, labels)
	return rec
}

// runManualBatch drives one batch's forward/backward sequentially on a
// single element state — a deterministic miniature of the training loop's
// element phase, leaving the gradient in the records for an update.
func runManualBatch(n *Network, st *elemState, batch []dataset.Example) {
	for i := range batch {
		trainElem(n, st, i, batch[i].Features, batch[i].Labels)
	}
}

func mustNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n
}

func mustState(t *testing.T, n *Network, seed uint64) *elemState {
	t.Helper()
	st, err := newElemState(n, seed, 0)
	if err != nil {
		t.Fatalf("newElemState: %v", err)
	}
	return st
}

// requireNetsBitIdentical compares every trainable parameter and Adam
// moment bit for bit.
func requireNetsBitIdentical(t *testing.T, a, b *Network, context string) {
	t.Helper()
	for li := range a.layers {
		la, lb := a.layers[li], b.layers[li]
		for j := 0; j < la.out; j++ {
			for i := 0; i < la.in; i++ {
				if wa, wb := *la.cell(la.w, j, i), *lb.cell(lb.w, j, i); math.Float32bits(wa) != math.Float32bits(wb) {
					t.Fatalf("%s: layer %d w[%d][%d]: %g != %g", context, li, j, i, wa, wb)
				}
				if math.Float32bits(*la.cell(la.mW, j, i)) != math.Float32bits(*lb.cell(lb.mW, j, i)) ||
					math.Float32bits(*la.cell(la.vW, j, i)) != math.Float32bits(*lb.cell(lb.vW, j, i)) {
					t.Fatalf("%s: layer %d moments[%d][%d] diverged", context, li, j, i)
				}
			}
			if math.Float32bits(la.b[j]) != math.Float32bits(lb.b[j]) ||
				math.Float32bits(la.mB[j]) != math.Float32bits(lb.mB[j]) ||
				math.Float32bits(la.vB[j]) != math.Float32bits(lb.vB[j]) {
				t.Fatalf("%s: layer %d bias[%d] diverged", context, li, j)
			}
		}
	}
}

// TestExtractDeltaDrainsBuffers: extraction consumes the gradient — a
// second extraction in the same batch is empty.
func TestExtractDeltaDrainsBuffers(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	n := mustNet(t, deltaTestConfig(classes))
	st := mustState(t, n, 5)
	runManualBatch(n, st, ds.Train[:16])

	d := n.ExtractDelta(nil, 2)
	if d.Cells() == 0 {
		t.Fatal("extracted an empty delta from a trained batch")
	}
	if again := n.ExtractDelta(nil, 2); again.Cells() != 0 {
		t.Fatalf("second extract carries %d cells, want 0", again.Cells())
	}

	// Deltas must have ascending rows, full-width row blocks and ascending
	// neurons — the invariants the codec and merge rely on.
	for li := range d.Layers {
		ld := &d.Layers[li]
		rows, width := n.layers[li].StorageShape()
		if !ascendingBelow(ld.Rows, rows) || ld.Cols != nil || len(ld.Vals) != len(ld.Rows)*width {
			t.Fatalf("layer %d: malformed row block (%d rows, %d values, cols %v)", li, len(ld.Rows), len(ld.Vals), ld.Cols)
		}
		if !ascendingBelow(ld.Neurons, n.layers[li].out) || len(ld.Bias) != len(ld.Neurons) {
			t.Fatalf("layer %d: malformed neuron list", li)
		}
	}
}

// TestExtractDeltaBeforeBackward: a network that never ran a backward
// pass holds no records; it must still extract a well-formed empty delta,
// and a local update phase must step nothing.
func TestExtractDeltaBeforeBackward(t *testing.T) {
	n := mustNet(t, deltaTestConfig(128))
	before := stateHash(n)
	d := n.ExtractDelta(nil, 2)
	if len(d.Layers) != len(n.layers) {
		t.Fatalf("delta has %d layers, network %d", len(d.Layers), len(n.layers))
	}
	for li := range d.Layers {
		ld := &d.Layers[li]
		if len(ld.Rows) != 0 || len(ld.Cols) != 0 || len(ld.Vals) != 0 || len(ld.Neurons) != 0 || len(ld.Bias) != 0 {
			t.Fatalf("layer %d: not an empty delta: %+v", li, *ld)
		}
	}
	if _, err := n.ApplyDelta(d, n.adam.Alpha(1), 1, 2); err != nil {
		t.Fatalf("ApplyDelta rejected the empty delta: %v", err)
	}
	n.applyAdamBatch(n.adam.Alpha(1), 1, 2)
	if n.touchedWeights != 0 || stateHash(n) != before {
		t.Fatalf("an update phase without a backward pass stepped %d cells", n.touchedWeights)
	}
}

// deltaAsMap flattens a delta's nonzero cells into (layer,row,col) ->
// value, in the layer's storage orientation, with neuron j's nonzero bias
// keyed at (layer,j,-1).
func deltaAsMap(d *SparseDelta) map[[3]int32]float64 {
	out := make(map[[3]int32]float64)
	for li := range d.Layers {
		ld := &d.Layers[li]
		w := ld.width()
		for r, row := range ld.Rows {
			for u, v := range ld.Vals[r*w : (r+1)*w] {
				col := int32(u)
				if ld.Cols != nil {
					col = ld.Cols[u]
				}
				if v != 0 {
					out[[3]int32{int32(li), row, col}] = float64(v)
				}
			}
		}
		for k, j := range ld.Neurons {
			if ld.Bias[k] != 0 {
				out[[3]int32{int32(li), j, -1}] = float64(ld.Bias[k])
			}
		}
	}
	return out
}

// TestMergeDeltasHandBuilt exercises the row merge on a constructed case:
// disjoint rows, a shared row, shared and disjoint neurons, and a
// column-set layer whose parts carry different sets.
func TestMergeDeltasHandBuilt(t *testing.T) {
	a := &SparseDelta{Layers: []LayerDelta{{
		Rows:    []int32{1, 4},
		Vals:    []float32{1, 0, 0, 2, 0, 0, 3, 0},
		Neurons: []int32{1},
		Bias:    []float32{0.5},
	}, {
		Rows:    []int32{0},
		Cols:    []int32{2, 9},
		Vals:    []float32{1, 2},
		Neurons: []int32{0},
		Bias:    []float32{1},
	}}}
	b := &SparseDelta{Layers: []LayerDelta{{
		Rows:    []int32{2, 4},
		Vals:    []float32{0, 0, 0, 10, 0, 0, 20, 30},
		Neurons: []int32{2, 4},
		Bias:    []float32{0.75, 0.25},
	}, {
		Rows:    []int32{0, 3},
		Cols:    []int32{5, 9},
		Vals:    []float32{4, 8, 16, 0},
		Neurons: []int32{0, 3},
		Bias:    []float32{-1, 2},
	}}}
	m, err := MergeDeltas(nil, []*SparseDelta{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if ld := &m.Layers[0]; !slices.Equal(ld.Rows, []int32{1, 2, 4}) || ld.Cols != nil || !slices.Equal(ld.Neurons, []int32{1, 2, 4}) {
		t.Fatalf("layer 0 merged rows %v cols %v neurons %v", ld.Rows, ld.Cols, ld.Neurons)
	}
	if ld := &m.Layers[1]; !slices.Equal(ld.Rows, []int32{0, 3}) || !slices.Equal(ld.Cols, []int32{2, 5, 9}) {
		t.Fatalf("layer 1 merged rows %v cols %v, want [0 3] over [2 5 9]", ld.Rows, ld.Cols)
	}
	got := deltaAsMap(m)
	want := map[[3]int32]float64{
		{0, 1, 0}: 1, {0, 1, 3}: 2, {0, 1, -1}: 0.5,
		{0, 2, 3}: 10, {0, 2, -1}: 0.75,
		{0, 4, 2}: 23, {0, 4, 3}: 30, {0, 4, -1}: 0.25,
		{1, 0, 2}: 1, {1, 0, 5}: 4, {1, 0, 9}: 10,
		{1, 3, 5}: 16, {1, 3, -1}: 2, // neuron 0's biases cancel: no gradient
	}
	if len(got) != len(want) {
		t.Fatalf("merged cells = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("cell %v = %g, want %g", k, got[k], v)
		}
	}

	// Single-part merge passes the delta through untouched.
	solo, err := MergeDeltas(nil, []*SparseDelta{a})
	if err != nil || solo != a {
		t.Fatalf("single-part merge = %p (%v), want passthrough %p", solo, err, a)
	}
}

// TestCellsCountsNonzero: Cells counts nonzero weight cells and nonzero
// biases; the zero slots of a row block, ±0 alike, are not cells.
func TestCellsCountsNonzero(t *testing.T) {
	d := &SparseDelta{Layers: []LayerDelta{{
		Rows:    []int32{0, 3},
		Vals:    []float32{1, 0, float32(math.Copysign(0, -1)), -2, 0, 0, 0, 0},
		Neurons: []int32{0, 1, 3},
		Bias:    []float32{0, 0.5, 0},
	}}}
	if got := d.Cells(); got != 3 {
		t.Fatalf("Cells() = %d, want 3 (two weight cells, one bias)", got)
	}
}

// TestApplyDeltaSkipsZeroSumCells: two parts cancelling exactly on one
// weight cell and one bias merge to zeros there, and zero means no step:
// the cell's and the bias's weight and moments stay untouched while their
// neighbours step.
func TestApplyDeltaSkipsZeroSumCells(t *testing.T) {
	n := mustNet(t, deltaTestConfig(128))
	l := n.layers[1]
	_, width := l.StorageShape()
	part := func(sign float32) *SparseDelta {
		vals := make([]float32, width)
		vals[3], vals[4] = sign*0.5, 0.25
		return &SparseDelta{Layers: []LayerDelta{{}, {
			Rows:    []int32{7},
			Vals:    vals,
			Neurons: []int32{7, 8},
			Bias:    []float32{sign * 2, 1},
		}}}
	}
	// Warm the moments so a spurious zero-gradient step would move them.
	if _, err := n.ApplyDelta(part(1), n.adam.Alpha(1), 1, 1); err != nil {
		t.Fatal(err)
	}
	merged, err := MergeDeltas(nil, []*SparseDelta{part(1), part(-1)})
	if err != nil {
		t.Fatal(err)
	}
	type cell struct{ w, m, v float32 }
	weight := func(i int) cell { return cell{l.w[7][i], l.mW[7][i], l.vW[7][i]} }
	bias := func(j int) cell { return cell{l.b[j], l.mB[j], l.vB[j]} }
	w3, w4, b7, b8 := weight(3), weight(4), bias(7), bias(8)
	stepped, err := n.ApplyDelta(merged, n.adam.Alpha(2), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stepped != 2 || stepped != merged.Cells() {
		t.Fatalf("stepped %d cells, want 2 (= Cells() %d)", stepped, merged.Cells())
	}
	if weight(3) != w3 || bias(7) != b7 {
		t.Fatalf("zero-sum cells stepped: weight %+v -> %+v, bias %+v -> %+v", w3, weight(3), b7, bias(7))
	}
	if weight(4) == w4 || bias(8) == b8 {
		t.Fatal("nonzero cells did not step")
	}
}

// TestDeltaMergeMatchesCombinedBatch is the data-parallel soundness test:
// two shards each extracting a half-batch delta and merging must produce
// the same gradient a single process accumulates over the full batch —
// identical cell structure, values equal up to float re-association (the
// halves sum their contributions separately before the cross-shard sum).
func TestDeltaMergeMatchesCombinedBatch(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	cfg := deltaTestConfig(classes)
	full := mustNet(t, cfg)
	shardA := mustNet(t, cfg)
	shardB := mustNet(t, cfg)

	const batchSize = 16
	batch := ds.Train[:batchSize]

	runManualBatch(full, mustState(t, full, 3), batch)
	dFull := full.ExtractDelta(nil, 3)
	runManualBatch(shardA, mustState(t, shardA, 3), batch[:batchSize/2])
	dA := shardA.ExtractDelta(nil, 3).Clone()
	runManualBatch(shardB, mustState(t, shardB, 3), batch[batchSize/2:])
	dB := shardB.ExtractDelta(nil, 3)

	merged, err := MergeDeltas(nil, []*SparseDelta{dA, dB})
	if err != nil {
		t.Fatal(err)
	}

	got, want := deltaAsMap(merged), deltaAsMap(dFull)
	checked := 0
	for k, wv := range want {
		gv, ok := got[k]
		if !ok {
			// Exact cancellation to 0.0 in one accumulation order but not
			// the other is possible in principle; treat missing as zero.
			gv = 0
		}
		if diff := math.Abs(gv - wv); diff > 1e-5*math.Max(1, math.Abs(wv)) {
			t.Fatalf("cell %v: merged %g vs combined %g", k, gv, wv)
		}
		checked++
	}
	for k := range got {
		if _, ok := want[k]; !ok && got[k] != 0 {
			t.Fatalf("merged has cell %v = %g missing from combined batch", k, got[k])
		}
	}
	if checked < 100 {
		t.Fatalf("only %d cells compared; test is too small to be meaningful", checked)
	}

	// Applying merged vs combined must land the networks at (nearly) the
	// same weights.
	invB := float32(1.0 / batchSize)
	alpha := full.adam.Alpha(1)
	if _, err := full.ApplyDelta(dFull, alpha, invB, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := shardA.ApplyDelta(merged, alpha, invB, 3); err != nil {
		t.Fatal(err)
	}
	for li := range full.layers {
		lf, ls := full.layers[li], shardA.layers[li]
		for j := 0; j < lf.out; j++ {
			for i := 0; i < lf.in; i++ {
				wf, ws := *lf.cell(lf.w, j, i), *ls.cell(ls.w, j, i)
				if diff := math.Abs(float64(wf - ws)); diff > 1e-5 {
					t.Fatalf("layer %d w[%d][%d]: combined %g vs merged %g", li, j, i, wf, ws)
				}
			}
		}
	}
}

// TestApplyDeltaValidatesShape rejects malformed or mis-shaped deltas
// instead of corrupting weights or panicking.
func TestApplyDeltaValidatesShape(t *testing.T) {
	const classes = 128
	n := mustNet(t, deltaTestConfig(classes))

	if _, err := n.ApplyDelta(&SparseDelta{}, 0.001, 1, 2); err == nil {
		t.Fatal("layer-count mismatch accepted")
	}
	_, width := n.layers[1].StorageShape()
	bad := &SparseDelta{Layers: make([]LayerDelta, 2)}
	bad.Layers[1] = LayerDelta{
		Rows: []int32{int32(classes)}, // out of range
		Vals: make([]float32, width),
	}
	if _, err := n.ApplyDelta(bad, 0.001, 1, 2); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	bad.Layers[1] = LayerDelta{
		Rows: []int32{3},
		Cols: []int32{int32(width)}, // out of range
		Vals: []float32{1},
	}
	if _, err := n.ApplyDelta(bad, 0.001, 1, 2); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	bad.Layers[1] = LayerDelta{
		Rows: []int32{3, 5},
		Vals: make([]float32, width), // one row's worth for two rows
	}
	if _, err := n.ApplyDelta(bad, 0.001, 1, 2); err == nil {
		t.Fatal("short row block accepted")
	}
	bad.Layers[1] = LayerDelta{
		Rows: []int32{5, 3}, // descending: two writers could share a row
		Vals: make([]float32, 2*width),
	}
	if _, err := n.ApplyDelta(bad, 0.001, 1, 2); err == nil {
		t.Fatal("descending rows accepted")
	}
	bad.Layers[1] = LayerDelta{Neurons: []int32{2}, Bias: []float32{1, 1}}
	if _, err := n.ApplyDelta(bad, 0.001, 1, 2); err == nil {
		t.Fatal("bias/neuron count mismatch accepted")
	}

	// A delta valid in layer 0 but malformed in layer 1 must not touch
	// layer 0's weights: a caller retrying after the error would
	// otherwise double-apply the valid prefix.
	l0 := n.layers[0]
	_, w0 := l0.StorageShape()
	mixed := &SparseDelta{Layers: make([]LayerDelta, 2)}
	mixed.Layers[0] = LayerDelta{
		Rows:    []int32{7},
		Vals:    make([]float32, w0),
		Neurons: []int32{5},
		Bias:    []float32{1},
	}
	mixed.Layers[0].Vals[5] = 3
	mixed.Layers[1] = LayerDelta{
		Neurons: []int32{int32(classes)}, // out of range
		Bias:    []float32{1},
	}
	before := *l0.cell(l0.w, 5, 7)
	if _, err := n.ApplyDelta(mixed, 0.001, 1, 2); err == nil {
		t.Fatal("malformed layer 1 accepted")
	}
	if *l0.cell(l0.w, 5, 7) != before {
		t.Fatal("valid layer 0 was applied despite the layer 1 validation error")
	}
}

// TestLoopbackExchangerMatchesLocal: a single-shard exchanger that echoes
// the local delta back (the dist measurement tap) must leave training
// bit-identical to the plain single-process path. The plain run steps
// straight from the folded rows (stepFold) while the tapped run compacts
// them into a SparseDelta and applies it (compactFold + ApplyDelta), so
// this compares the fold's two consumers through real training.
func TestLoopbackExchangerMatchesLocal(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	cfg := deltaTestConfig(classes)
	plain := mustNet(t, cfg)
	tapped := mustNet(t, cfg)

	// Training is deterministic, so the two runs are comparable bit for
	// bit.
	tc := TrainConfig{BatchSize: 32, Iterations: 20, Threads: 1, EvalEvery: 0, Seed: 9}
	if _, err := plain.Train(ds.Train, ds.Test, tc); err != nil {
		t.Fatal(err)
	}
	tcx := tc
	tcx.Shards = 1
	tcx.Exchanger = loopback{}
	res, err := tapped.Train(ds.Train, ds.Test, tcx)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExchangeNS < 0 {
		t.Fatalf("ExchangeNS = %d", res.ExchangeNS)
	}
	requireNetsBitIdentical(t, plain, tapped, "loopback exchanger")
}

type loopback struct{}

func (loopback) Exchange(_ int64, local *SparseDelta, stop bool) (*SparseDelta, bool, error) {
	return local, stop, nil
}
