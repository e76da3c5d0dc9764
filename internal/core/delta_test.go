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
				Strategy: sampling.KindVanilla, Beta: 48,
			},
		},
	}
}

// trainElem runs one element's forward and backward pass into batch
// position k's record, reseeded as Train's workers reseed position k of
// step under run seed, and returns the record. Retrieval then draws what
// it draws in Train, whichever state runs the element.
func trainElem(n *Network, st *elemState, seed uint64, step int64, k int, x sparse.Vector, labels []int32) *elemRecord {
	n.ensureRecords(k + 1)
	rec := n.records[k]
	st.reseed(trainSeed(seed, step, k))
	rec.x = x
	n.forward(st, rec.layers, x, labels, modeTrain)
	n.backwardElem(st, rec, labels)
	return rec
}

// runManualBatch drives batch positions first.. of step 0 under run seed
// 0 sequentially on a single element state — a deterministic miniature
// of the training loop's element phase, leaving the gradient in the
// records for an update.
func runManualBatch(n *Network, st *elemState, first int, batch []dataset.Example) {
	for i := range batch {
		trainElem(n, st, 0, 0, first+i, batch[i].Features, batch[i].Labels)
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
				if math.Float32bits(la.moment(la.mW, j, i)) != math.Float32bits(lb.moment(lb.mW, j, i)) ||
					math.Float32bits(la.moment(la.vW, j, i)) != math.Float32bits(lb.moment(lb.vW, j, i)) {
					t.Fatalf("%s: layer %d moments[%d][%d] diverged", context, li, j, i)
				}
			}
			if math.Float32bits(la.b[j]) != math.Float32bits(lb.b[j]) ||
				math.Float32bits(biasMoment(la.mB, j)) != math.Float32bits(biasMoment(lb.mB, j)) ||
				math.Float32bits(biasMoment(la.vB, j)) != math.Float32bits(biasMoment(lb.vB, j)) {
				t.Fatalf("%s: layer %d bias[%d] diverged", context, li, j)
			}
		}
	}
}

// TestExtractDeltaDrainsBuffers: extraction copies every record holding
// gradient and consumes them — a second extraction in the same batch is
// empty — and what it copies is a delta the network accepts.
func TestExtractDeltaDrainsBuffers(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	n := mustNet(t, deltaTestConfig(classes))
	st := mustState(t, n, 5)
	runManualBatch(n, st, 0, ds.Train[:16])

	d := n.ExtractDelta(nil, 2)
	if records, err := n.checkDelta(d); err != nil || records != 16 {
		t.Fatalf("extracted %d records (%v), want 16 the network accepts", records, err)
	}
	if d.Cells() == 0 {
		t.Fatal("extracted an empty delta from a trained batch")
	}
	for k, ex := range ds.Train[:16] {
		in := &d.Input
		if !slices.Equal(in.IDs[in.Off[k]:in.Off[k+1]], ex.Features.Idx) || !slices.Equal(in.Vals[in.Off[k]:in.Off[k+1]], ex.Features.Val) {
			t.Fatalf("record %d: features are not the example's", k)
		}
	}
	if again := n.ExtractDelta(nil, 2); again.Cells() != 0 || len(again.Input.Off) != 0 {
		t.Fatalf("second extract carries %d cells in %d offsets, want none", again.Cells(), len(again.Input.Off))
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
	for li, ld := range append([]LayerDelta{d.Input}, d.Layers...) {
		if len(ld.Off)+len(ld.IDs)+len(ld.Delta)+len(ld.Vals) != 0 {
			t.Fatalf("factor set %d: not an empty delta: %+v", li, ld)
		}
	}
	if stepped, err := n.ApplyDelta(d, n.adam.Alpha(1), 1, 2); err != nil || stepped != 0 {
		t.Fatalf("ApplyDelta on the empty delta: %d cells, %v", stepped, err)
	}
	n.applyAdamBatch(n.adam.Alpha(1), 1, 2)
	if n.touchedWeights != 0 || stateHash(n) != before {
		t.Fatalf("an update phase without a backward pass stepped %d cells", n.touchedWeights)
	}
}

// handRec is one hand-built record for the deltaTestConfig network:
// features, layer 0's δ and activations (64 wide, full; nil for zeros)
// and the sampled output layer's active ids and δ.
type handRec struct {
	feats         []int32
	featVals      []float32
	delta0, vals0 []float32
	ids1          []int32
	delta1        []float32
}

// handDelta builds a delta of recs, in order.
func handDelta(recs ...handRec) *SparseDelta {
	d := &SparseDelta{}
	d.reset(2)
	for _, r := range recs {
		d.Input.add(r.feats, nil, r.featVals)
		d.Layers[0].add(nil, orZeros(r.delta0, 64), orZeros(r.vals0, 64))
		d.Layers[1].add(r.ids1, r.delta1, nil)
	}
	return d
}

// orZeros returns v, or n zeros for a nil v.
func orZeros(v []float32, n int) []float32 {
	if v == nil {
		return make([]float32, n)
	}
	return v
}

// TestMergeDeltasConcatenates: a merge is every part's records, part
// after part, with each part's offsets moved past the records before it;
// a part without records adds nothing, a single part passes through
// uncopied, and parts of different layer counts or broken structure are
// refused.
func TestMergeDeltasConcatenates(t *testing.T) {
	r1 := handRec{feats: []int32{4, 2}, featVals: []float32{1, 2}, ids1: []int32{1, 5}, delta1: []float32{0.5, -1}}
	r2 := handRec{feats: []int32{9}, featVals: []float32{3}, ids1: []int32{0}, delta1: []float32{2}}
	r3 := handRec{ids1: []int32{3, 4, 7}, delta1: []float32{1, 2, 3}}
	a, b := handDelta(r1, r2), handDelta(r3)
	m, err := MergeDeltas(nil, []*SparseDelta{a, handDelta(), b})
	if err != nil {
		t.Fatal(err)
	}
	want := handDelta(r1, r2, r3)
	for li, pair := range [][2]*LayerDelta{{&m.Input, &want.Input}, {&m.Layers[0], &want.Layers[0]}, {&m.Layers[1], &want.Layers[1]}} {
		got, w := pair[0], pair[1]
		if !slices.Equal(got.Off, w.Off) || !slices.Equal(got.IDs, w.IDs) || !slices.Equal(got.Delta, w.Delta) || !slices.Equal(got.Vals, w.Vals) {
			t.Fatalf("factor set %d: merged %+v, want %+v", li, *got, *w)
		}
	}
	if m.Cells() != a.Cells()+b.Cells() {
		t.Fatalf("merged Cells() = %d, want %d + %d", m.Cells(), a.Cells(), b.Cells())
	}

	// Single-part merge passes the delta through untouched.
	solo, err := MergeDeltas(nil, []*SparseDelta{a})
	if err != nil || solo != a {
		t.Fatalf("single-part merge = %p (%v), want passthrough %p", solo, err, a)
	}
	if _, err := MergeDeltas(nil, []*SparseDelta{a, {Layers: make([]LayerDelta, 3)}}); err == nil {
		t.Fatal("parts of 2 and 3 layers merged")
	}
	broken := handDelta(r1, r2)
	broken.Layers[1].Off[1] = 5 // past the next record's end
	if _, err := MergeDeltas(nil, []*SparseDelta{a, broken}); err == nil {
		t.Fatal("a part with descending offsets merged")
	}
}

// TestCellsCountsProducts: Cells counts, per record and layer, the layer
// input's length times the δ count plus the δ count; a broken record
// structure has none.
func TestCellsCountsProducts(t *testing.T) {
	d := handDelta(
		handRec{feats: []int32{1, 2, 3}, featVals: []float32{1, 1, 1}, ids1: []int32{0, 1, 2, 3, 4}, delta1: make([]float32, 5)},
		handRec{ids1: []int32{6, 9}, delta1: []float32{1, 0}},
	)
	want := int64(3*64+64+64*5+5) + int64(0*64+64+64*2+2)
	if got := d.Cells(); got != want {
		t.Fatalf("Cells() = %d, want %d", got, want)
	}
	d.Layers[0].Off = d.Layers[0].Off[:2]
	if got := d.Cells(); got != 0 {
		t.Fatalf("Cells() of a broken delta = %d, want 0", got)
	}
}

// TestApplyDeltaSkipsZeroSumCells: two records cancelling exactly on one
// neuron's weight row and bias sum to zeros there, and zero means no
// step: that row's and bias's weights and moments stay untouched while a
// neighbour steps; the stepped count is the neighbour's nonzero cells and
// bias.
func TestApplyDeltaSkipsZeroSumCells(t *testing.T) {
	n := mustNet(t, deltaTestConfig(128))
	l := n.layers[1]
	vals := make([]float32, 64)
	for i := range vals {
		vals[i] = float32(i%7) - 3 // nine zero inputs
	}
	rec := func(sign float32) handRec {
		return handRec{vals0: vals, ids1: []int32{7, 8}, delta1: []float32{sign * 0.5, 0.25}}
	}
	// Warm the moments so a spurious zero-gradient step would move them.
	if _, err := n.ApplyDelta(handDelta(rec(1)), n.adam.Alpha(1), 1, 1); err != nil {
		t.Fatal(err)
	}
	type cell struct{ w, m, v float32 }
	weight := func(j, i int) cell { return cell{l.w[j][i], l.moment(l.mW, j, i), l.moment(l.vW, j, i)} }
	bias := func(j int) cell { return cell{l.b[j], l.mB[j], l.vB[j]} }
	w7, w8, b7, b8 := weight(7, 4), weight(8, 4), bias(7), bias(8)
	stepped, err := n.ApplyDelta(handDelta(rec(1), rec(-1)), n.adam.Alpha(2), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stepped != 64-9+1 {
		t.Fatalf("stepped %d cells, want neuron 8's 55 nonzero inputs and its bias", stepped)
	}
	if weight(7, 4) != w7 || bias(7) != b7 {
		t.Fatalf("zero-sum cells stepped: weight %+v -> %+v, bias %+v -> %+v", w7, weight(7, 4), b7, bias(7))
	}
	if weight(8, 4) == w8 || bias(8) == b8 {
		t.Fatal("nonzero cells did not step")
	}
}

// TestMergeDeltasRefusesNonFinite: a NaN or ±Inf in any factor of any
// part — a feature value, a δ, an activation — fails the merge, so no
// replica applies it; the largest finite values merge.
func TestMergeDeltasRefusesNonFinite(t *testing.T) {
	ok := handRec{feats: []int32{1}, featVals: []float32{1}, ids1: []int32{2}, delta1: []float32{1}}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32} {
		finite := bad == math.MaxFloat32
		vals := make([]float32, 64)
		vals[63] = bad
		for name, r := range map[string]handRec{
			"feature":    {feats: []int32{1}, featVals: []float32{bad}, ids1: []int32{2}, delta1: []float32{1}},
			"δ":          {ids1: []int32{2, 3}, delta1: []float32{1, bad}},
			"hidden δ":   {delta0: vals, ids1: []int32{2}, delta1: []float32{1}},
			"activation": {vals0: vals, ids1: []int32{2}, delta1: []float32{1}},
		} {
			for _, parts := range [][]*SparseDelta{{handDelta(ok), handDelta(r)}, {handDelta(r), handDelta(ok)}} {
				if _, err := MergeDeltas(nil, parts); (err == nil) != finite {
					t.Fatalf("%s %g: merge error %v, want ok=%v", name, bad, err, finite)
				}
			}
		}
	}
}

// TestDeltaMergeMatchesCombinedBatch is the data-parallel soundness test:
// two shards each extracting a half-batch delta and merging must step the
// network exactly as a single process steps the full batch — the merged
// records are the combined batch's, in its order, so weights, moments and
// the stepped count agree bit for bit.
func TestDeltaMergeMatchesCombinedBatch(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	cfg := deltaTestConfig(classes)
	full := mustNet(t, cfg)
	shardA := mustNet(t, cfg)
	shardB := mustNet(t, cfg)

	const batchSize = 16
	batch := ds.Train[:batchSize]

	runManualBatch(full, mustState(t, full, 3), 0, batch)
	dFull := full.ExtractDelta(nil, 3)
	runManualBatch(shardA, mustState(t, shardA, 3), 0, batch[:batchSize/2])
	dA := shardA.ExtractDelta(nil, 3).Clone()
	// Shard B runs the second half at the positions the full batch ran
	// it, so its elements retrieve the same active sets.
	runManualBatch(shardB, mustState(t, shardB, 3), batchSize/2, batch[batchSize/2:])
	dB := shardB.ExtractDelta(nil, 3)

	merged, err := MergeDeltas(nil, []*SparseDelta{dA, dB})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Cells() != dFull.Cells() {
		t.Fatalf("merged delta carries %d cells, combined batch %d", merged.Cells(), dFull.Cells())
	}
	invB := float32(1.0 / batchSize)
	alpha := full.adam.Alpha(1)
	want, err := full.ApplyDelta(dFull, alpha, invB, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shardA.ApplyDelta(merged, alpha, invB, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got < 100 {
		t.Fatalf("merged step moved %d cells, combined batch %d", got, want)
	}
	requireNetsBitIdentical(t, full, shardA, "merged vs combined batch")
}

// TestApplyDeltaValidatesShape rejects malformed or mis-shaped deltas
// instead of corrupting weights or panicking, and moves no weight when
// only a later layer or record is malformed.
func TestApplyDeltaValidatesShape(t *testing.T) {
	const classes = 128
	n := mustNet(t, deltaTestConfig(classes))
	if _, err := n.ApplyDelta(&SparseDelta{}, 0.001, 1, 2); err == nil {
		t.Fatal("layer-count mismatch accepted")
	}
	good := handRec{feats: []int32{7, 3}, featVals: []float32{1, 2}, delta0: make([]float32, 64), ids1: []int32{2, 9}, delta1: []float32{1, -1}}
	good.delta0[5] = 3
	for name, mutate := range map[string]func(d *SparseDelta){
		"feature out of range":   func(d *SparseDelta) { d.Input.IDs[1] = colTrackThreshold + 100 },
		"negative feature":       func(d *SparseDelta) { d.Input.IDs[0] = -1 },
		"feature without value":  func(d *SparseDelta) { d.Input.Vals = d.Input.Vals[:1] },
		"feature with δ":         func(d *SparseDelta) { d.Input.Delta = []float32{1, 1, 1, 1} },
		"id out of range":        func(d *SparseDelta) { d.Layers[1].IDs[3] = classes },
		"ids descending":         func(d *SparseDelta) { d.Layers[1].IDs[2], d.Layers[1].IDs[3] = 9, 2 },
		"ids repeated":           func(d *SparseDelta) { d.Layers[1].IDs[3] = 2 },
		"δ without id":           func(d *SparseDelta) { d.Layers[1].Delta = append(d.Layers[1].Delta, 1) },
		"ids without δ":          func(d *SparseDelta) { d.Layers[1].Delta = d.Layers[1].Delta[:2] },
		"last layer activations": func(d *SparseDelta) { d.Layers[1].Vals = make([]float32, 4) },
		"full layer ids":         func(d *SparseDelta) { d.Layers[0].IDs = make([]int32, 128) },
		"full layer short":       func(d *SparseDelta) { d.Layers[0].Off[1], d.Layers[0].Off[2] = 63, 126 },
		"full layer missing δ":   func(d *SparseDelta) { d.Layers[0].Delta = nil },
		"missing activations":    func(d *SparseDelta) { d.Layers[0].Vals = nil },
		"records disagree":       func(d *SparseDelta) { d.Layers[1].Off = d.Layers[1].Off[:2] },
		"offsets past factors":   func(d *SparseDelta) { d.Layers[1].Off[2] = 5 },
		"offsets from 1":         func(d *SparseDelta) { d.Input.Off[0] = 1 },
		"NaN δ":                  func(d *SparseDelta) { d.Layers[1].Delta[3] = float32(math.NaN()) },
		"Inf activation":         func(d *SparseDelta) { d.Layers[0].Vals[100] = float32(math.Inf(-1)) },
		"NaN feature":            func(d *SparseDelta) { d.Input.Vals[3] = float32(math.NaN()) },
	} {
		d := handDelta(good, good)
		mutate(d)
		before := stateHash(n)
		if _, err := n.ApplyDelta(d, 0.001, 1, 2); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		// The first record and layer are valid: a caller retrying after
		// the error would otherwise double-apply a valid prefix.
		if stateHash(n) != before {
			t.Fatalf("%s: the refused delta moved the network", name)
		}
	}
	if _, err := n.ApplyDelta(handDelta(good, good), 0.001, 1, 2); err != nil {
		t.Fatalf("the unmutated delta was refused: %v", err)
	}
}

// TestLoopbackTouchedMatchesLocal: a sharded run counts the cells its Adam
// step moved, as a local run does, so at one shard the loopback reports
// the local run's TouchedPerIter exactly.
func TestLoopbackTouchedMatchesLocal(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	cfg := deltaTestConfig(classes)
	tc := TrainConfig{BatchSize: 32, Iterations: 12, Threads: 2, Seed: 9}
	local, err := mustNet(t, cfg).Train(ds.Train, ds.Test, tc)
	if err != nil {
		t.Fatal(err)
	}
	tc.Shards, tc.Exchanger = 1, loopback{}
	tapped, err := mustNet(t, cfg).Train(ds.Train, ds.Test, tc)
	if err != nil {
		t.Fatal(err)
	}
	if local.TouchedPerIter == 0 || tapped.TouchedPerIter != local.TouchedPerIter {
		t.Fatalf("TouchedPerIter: loopback %g, local %g", tapped.TouchedPerIter, local.TouchedPerIter)
	}
}

// TestLoopbackExchangerMatchesLocal: a single-shard exchanger that echoes
// the local delta back (the dist measurement tap) must leave training
// bit-identical to the plain single-process path. The plain run folds its
// own records while the tapped run copies them into a SparseDelta and
// folds views of it (ExtractDelta + ApplyDelta), so this compares the two
// record sources through real training.
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
