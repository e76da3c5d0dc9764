package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/optim"
	"repro/internal/sampling"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// Tests for the update phase: one replay per touched row (foldRow) into
// one Adam step (stepFold), over the batch's own records (local training)
// or over views of an extracted delta's (ExtractDelta, then ApplyDelta).

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
// each carrying gradient for layer li alone and shaped as the network's
// records are, so an extracted delta of them is one the network accepts:
// rows and δ in layer li's state (spread over every neuron on a full
// layer), the input in the example features (layer 0) or in the previous
// layer's activations (spread over its width when it is full), and zero
// δ everywhere else.
func injectFoldElems(n *Network, li int, elems []foldElem) {
	for _, e := range elems {
		rec := &elemRecord{layers: make([]layerState, len(n.layers)), used: true}
		for lj, l := range n.layers {
			if ls := &rec.layers[lj]; !l.Sampled() {
				ls.full, ls.delta, ls.vals = true, make([]float32, l.out), make([]float32, l.out)
			}
		}
		if ls := &rec.layers[li]; ls.full {
			for a, j := range e.rows {
				ls.delta[j] = e.delta[a]
			}
		} else {
			ls.ids, ls.delta = e.rows, e.delta
		}
		switch prev := &rec.layers[max(li-1, 0)]; {
		case li == 0:
			rec.x = sparse.Vector{Dim: n.layers[0].in, Idx: e.inIds, Val: e.inVals}
		case !prev.full:
			prev.ids, prev.vals, prev.delta = e.inIds, e.inVals, make([]float32, len(e.inIds))
		case e.inFull:
			copy(prev.vals, e.inVals)
		default:
			for t, i := range e.inIds {
				prev.vals[i] = e.inVals[t]
			}
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
		slices.Sort(rows) // active ids are ascending, as a forward pass leaves them
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

// TestStepFoldMatchesExtractApply: stepping from the batch's own records
// (applyAdamBatch) and from views of their extracted copy (ExtractDelta,
// then ApplyDelta) must leave weights, moments, biases and the stepped-cell
// count bit-identical — for elements run by 1, 2 and 3 workers, for
// input-major, full-width and column-union rows, at several update worker
// counts — and the fold must show the constructed cases.
func TestStepFoldMatchesExtractApply(t *testing.T) {
	const classes = 96
	sampledOut := LayerConfig{
		Size: classes, Activation: ActSoftmax,
		Sampled: true, Hash: lsh.KindSimhash, K: 5, L: 16,
		Strategy: sampling.KindVanilla, Beta: 48,
	}
	wide := colTrackThreshold + 100
	configs := map[string]Config{
		// Layer 0: input-major rows. Layer 1: full-width rows, sampled.
		"hidden-wide": {InputDim: wide, Seed: 11, Layers: []LayerConfig{{Size: 64, Activation: ActReLU}, sampledOut}},
		// Layer 0: input-major rows of a narrow input.
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
						denseIn := li > 0 && !stepNet.layers[li-1].Sampled()
						elems := foldTestElems(int64(100*round+li), l.in, l.out, shards, denseIn)
						injectFoldElems(stepNet, li, elems)
						injectFoldElems(applyNet, li, elems)
					}

					before := stepNet.touchedWeights
					stepNet.applyAdamBatch(alpha, invB, workers)
					stepped := stepNet.touchedWeights - before

					d := applyNet.ExtractDelta(nil, workers)
					requireConstructedCases(t, deltaCells(applyNet, d, workers), len(applyNet.layers), shards)
					applied, err := applyNet.ApplyDelta(d, alpha, invB, workers)
					if err != nil {
						t.Fatal(err)
					}
					if stepped != applied || stepped == 0 {
						t.Fatalf("%s shards=%d workers=%d round %d: the batch's records stepped %d cells, their delta %d",
							name, shards, workers, round, stepped, applied)
					}
				}
				requireNetsBitIdentical(t, stepNet, applyNet, name)
			}
		}
	}
}

// requireConstructedCases checks that the folded gradient of every layer
// (deltaCells' map) shows the cases foldTestElems constructs: neuron 1's
// cancelled cell is zero (one nonzero cell per remaining contribution) and
// neuron 2 carries its bias and no nonzero cell.
func requireConstructedCases(t *testing.T, cells map[[3]int32]uint32, layers, shards int) {
	t.Helper()
	wantCells := 1
	if shards > 2 {
		wantCells = 2
	}
	for li := range int32(layers) {
		count := map[int32]int{}
		for k := range cells {
			if k[0] == li && k[2] >= 0 {
				count[k[1]]++
			}
		}
		if count[1] != wantCells {
			t.Fatalf("layer %d: neuron 1 carries %d cells, want %d (the cancelled cell must be zero)", li, count[1], wantCells)
		}
		if bias, ok := cells[[3]int32{li, 2, -1}]; count[2] != 0 || !ok || math.Float32frombits(bias) != 0.75 {
			t.Fatalf("layer %d: bias-only neuron 2 carries %d cells and bias %g, want 0 cells and 0.75", li, count[2], math.Float32frombits(bias))
		}
	}
}

// stateHash fingerprints every weight, bias and Adam moment bit, neuron by
// neuron and input by input whatever the layer's orientation; moments not
// allocated yet hash as the zeros they start as.
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
				put(*l.cell(l.w, j, i))
				put(l.moment(l.mW, j, i))
				put(l.moment(l.vW, j, i))
			}
			put(l.b[j])
			put(biasMoment(l.mB, j))
			put(biasMoment(l.vB, j))
		}
	}
	return h.Sum64()
}

// TestTrainingGoldenHash pins training — weights, biases and moments after
// 40 batches with three scheduled rebuilds — to recorded hashes, at 1, 2
// and 4 threads alike, and with every background build slowed past its
// publish step: the loop then waits for it, and the bits may not move.
// With the publish lag forced to 0, the width-64 run gives
// 0x905e3f65b503fcf7, the hash of rebuilding inline at the kick. Every
// value was re-recorded when the weight init moved to row-keyed streams
// (TestSaveModelFormulaGolden and TestTableFingerprintFormulaGolden show
// that nothing else moved). Retrieval is vanilla sampling, seeded per
// batch position. The hidden width is 64 — one 64-cell register block of
// the row kernels — and two more cases widen it to 72 (a block plus one
// 8-cell block) and 100 (a block, four 8-cell blocks and a 4-cell tail),
// so every tail path of the kernels is pinned too. Those two ran TopK
// retrieval until TopK was deleted; their vanilla hashes were recorded on
// the tree before the deletion. The goldens were recorded on amd64; other
// architectures may fuse multiply-adds and legitimately differ.
func TestTrainingGoldenHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64, running on %s", runtime.GOARCH)
	}
	const classes = 128
	ds := deltaTestDataset(t, classes)
	for _, c := range []struct {
		strategy    sampling.Kind
		hidden      int
		wantHash    uint64
		wantTouched int64
	}{
		{sampling.KindVanilla, 64, 0x86d9a7e9ef2b8741, 858091},
		{sampling.KindVanilla, 72, 0x77407ded2cc3e805, 973944},
		{sampling.KindVanilla, 100, 0x994dfb2d29e98bba, 1351336},
	} {
		for _, run := range []struct {
			threads int
			slow    bool
		}{{1, false}, {2, false}, {4, false}, {2, true}} {
			name := fmt.Sprintf("%v/threads=%d", c.strategy, run.threads)
			if c.hidden != 64 {
				name = fmt.Sprintf("%v/hidden=%d/threads=%d", c.strategy, c.hidden, run.threads)
			}
			if run.slow {
				name += "/slow-build"
			}
			t.Run(name, func(t *testing.T) {
				if run.slow {
					testSlowBuild = func() { time.Sleep(20 * time.Millisecond) }
					defer func() { testSlowBuild = nil }()
				}
				cfg := deltaTestConfig(classes)
				cfg.Layers[0].Size = c.hidden
				cfg.Layers[1].Strategy = c.strategy
				cfg.RebuildN0 = 10
				n := mustNet(t, cfg)
				tc := TrainConfig{BatchSize: 32, Iterations: 40, Threads: run.threads, Seed: 9}
				res, err := n.Train(ds.Train, ds.Test, tc)
				if err != nil {
					t.Fatal(err)
				}
				if res.Rebuilds != 3 {
					t.Fatalf("%d rebuilds, want 3 (kicked after batches 10, 21, 33)", res.Rebuilds)
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
			trainElem(n, states[i%2], 0, 0, i, ex.Features, ex.Labels)
		}
	}
}

// foldIndex is beginFold's index of one batch for one layer, as the
// serial reference builds it: the touched neurons ascending with their bias
// sums, the touched storage rows ascending with each row's contributions in
// record order, and on a column-union layer the union with every record's
// positions in it.
type foldIndex struct {
	neurons []int32
	bias    []float32
	rows    []int32
	rowOff  []int32
	ent     []vecmath.Term
	cols    []int32
	pos     [][]int32
}

// serialFoldIndex builds l's index of recs one record after another, on
// one thread, from the definition: a neuron is touched by a nonzero δ and
// its bias sums those δ in record order; a neuron-major row is a touched
// neuron, each contribution (k, δ_j); an input-major row is a feature
// present in any record, each contribution (k, x_k[i]), one per occurrence.
func serialFoldIndex(l *Layer, recs []*elemRecord) foldIndex {
	var ix foldIndex
	bias := map[int32]float32{}
	byRow := map[int32][]vecmath.Term{}
	colSet := map[int32]bool{}
	for k, rec := range recs {
		ls := &rec.layers[l.idx]
		for a, d := range ls.delta {
			if d == 0 {
				continue
			}
			j := ls.id(a)
			bias[j] += d
			if !l.inputMajor {
				byRow[j] = append(byRow[j], vecmath.Term{K: int32(k), Coef: d})
			}
		}
		ids, vals, _ := rec.input(l.idx)
		for t, i := range ids {
			colSet[i] = true
			if l.inputMajor {
				byRow[i] = append(byRow[i], vecmath.Term{K: int32(k), Coef: vals[t]})
			}
		}
	}
	for j := range bias {
		ix.neurons = append(ix.neurons, j)
	}
	slices.Sort(ix.neurons)
	for _, j := range ix.neurons {
		ix.bias = append(ix.bias, bias[j])
	}
	for r := range byRow {
		ix.rows = append(ix.rows, r)
	}
	slices.Sort(ix.rows)
	ix.rowOff = []int32{0}
	for _, r := range ix.rows {
		ix.ent = append(ix.ent, byRow[r]...)
		ix.rowOff = append(ix.rowOff, int32(len(ix.ent)))
	}
	if l.colStamp != nil && !l.inputMajor {
		for i := range colSet {
			ix.cols = append(ix.cols, i)
		}
		slices.Sort(ix.cols)
		for _, rec := range recs {
			ids, _, _ := rec.input(l.idx)
			var pos []int32
			for _, i := range ids {
				u, _ := slices.BinarySearch(ix.cols, i)
				pos = append(pos, int32(u))
			}
			ix.pos = append(ix.pos, pos)
		}
	}
	return ix
}

// builtFoldIndex reads beginFold's index off the layer.
func builtFoldIndex(l *Layer, recs []*elemRecord) foldIndex {
	f := &l.fold
	ix := foldIndex{
		neurons: slices.Clone(f.neurons),
		rows:    slices.Clone(f.rows),
		rowOff:  slices.Clone(f.rowOff),
		ent:     slices.Clone(f.ent),
		cols:    slices.Clone(f.cols),
	}
	for _, j := range f.neurons {
		ix.bias = append(ix.bias, f.bias[j])
	}
	if f.cols != nil {
		for k := range recs {
			ix.pos = append(ix.pos, slices.Clone(f.in[k].pos))
		}
	}
	return ix
}

// foldIndexRecords builds a batch's records for layer li of n: random
// records plus the cases the index must get right — a record whose δ is
// all zero, a neuron (the last) with a nonzero δ in every record, and on
// the first layer a record listing one feature three times. A full layer's
// records are full; a sampled one's carry ascending random active sets.
func foldIndexRecords(n *Network, li int, seed int64) []*elemRecord {
	r := rand.New(rand.NewSource(seed))
	l := n.layers[li]
	full := !l.Sampled()
	var recs []*elemRecord
	for k := 0; k < 13; k++ {
		rec := &elemRecord{layers: make([]layerState, len(n.layers))}
		ls := &rec.layers[li]
		ls.full = full
		if full {
			ls.delta = make([]float32, l.out)
		} else {
			for _, j := range r.Perm(l.out - 1)[:1+r.Intn(l.out/3)] {
				ls.ids = append(ls.ids, int32(j))
			}
			ls.ids = append(ls.ids, int32(l.out-1))
			slices.Sort(ls.ids)
			ls.delta = make([]float32, len(ls.ids))
		}
		if k != 4 { // record 4's δ is all zero
			for a := range ls.delta {
				if r.Intn(3) > 0 || ls.id(a) == int32(l.out-1) {
					ls.delta[a] = r.Float32() - 0.5
				}
			}
		}
		nin := 1 + r.Intn(min(l.in, 40))
		var ids []int32
		for _, i := range r.Perm(l.in)[:nin] {
			ids = append(ids, int32(i))
		}
		vals := make([]float32, len(ids))
		for t := range vals {
			vals[t] = r.Float32()
		}
		if li == 0 {
			if k == 7 { // feature ids[0] three times
				ids = append(ids, ids[0], ids[0])
				vals = append(vals, 0.25, -0.5)
			}
			rec.x = sparse.Vector{Dim: l.in, Idx: ids, Val: vals}
		} else if n.layers[li-1].Sampled() {
			slices.Sort(ids)
			rec.layers[li-1] = layerState{ids: ids, vals: vals}
		} else {
			in := make([]float32, l.in)
			for t, i := range ids {
				in[i] = vals[t]
			}
			rec.layers[li-1] = layerState{full: true, vals: in}
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestFoldIndexMatchesSerialReference checks beginFold's index, built on
// 1, 2, 3 and 7 index workers, against a serial build from the definition,
// on every orientation: input-major rows (layer 0 of "hidden"), full-width
// neuron rows over sampled and over full records, column-union rows, and
// neuron rows placed in several blocks; and right at the stamp epoch's
// wrap.
func TestFoldIndexMatchesSerialReference(t *testing.T) {
	sampledOut := LayerConfig{
		Size: 40, Activation: ActSoftmax,
		Sampled: true, Hash: lsh.KindSimhash, K: 4, L: 8,
		Strategy: sampling.KindVanilla, Beta: 16,
	}
	configs := map[string]Config{
		"hidden":      {InputDim: 300, Seed: 3, Layers: []LayerConfig{{Size: 24, Activation: ActReLU}, sampledOut}},
		"dense":       {InputDim: 300, Seed: 3, Layers: []LayerConfig{{Size: 24, Activation: ActReLU}, {Size: 40, Activation: ActSoftmax}}},
		"column-wide": {InputDim: colTrackThreshold + 200, Seed: 3, Layers: []LayerConfig{sampledOut}},
	}
	// Output rows over several placeBlock blocks per worker.
	wideOut := sampledOut
	wideOut.Size = 3*placeBlock + 100
	configs["blocks"] = Config{InputDim: 300, Seed: 3, Layers: []LayerConfig{{Size: 24, Activation: ActReLU}, wideOut}}
	for name, cfg := range configs {
		n := mustNet(t, cfg)
		n.allocTrainState() // beginFold's scratch, which its callers allocate
		for li, l := range n.layers {
			for _, wrap := range []bool{false, true} {
				for _, workers := range []int{1, 2, 3, 7} {
					recs := foldIndexRecords(n, li, int64(10*li+workers))
					want := serialFoldIndex(l, recs)
					if wrap {
						l.batchEpoch = math.MaxUint32
					}
					if !l.beginFold(recs, workers) {
						t.Fatalf("%s layer %d: beginFold found no gradient", name, li)
					}
					got := builtFoldIndex(l, recs)
					if diff := foldIndexDiff(got, want); diff != "" {
						t.Fatalf("%s layer %d wrap=%v workers=%d: %s", name, li, wrap, workers, diff)
					}
				}
			}
			zero := foldIndexRecords(n, li, 1)
			for _, rec := range zero {
				clear(rec.layers[li].delta)
			}
			if l.beginFold(zero, 3) {
				t.Fatalf("%s layer %d: beginFold reports gradient for an all-zero batch", name, li)
			}
		}
	}
}

// foldIndexDiff names the first part of two indexes that differs, bit for
// bit, or returns "".
func foldIndexDiff(got, want foldIndex) string {
	bits := func(v []float32) []uint32 {
		b := make([]uint32, len(v))
		for i, x := range v {
			b[i] = math.Float32bits(x)
		}
		return b
	}
	switch {
	case !slices.Equal(got.neurons, want.neurons):
		return fmt.Sprintf("neurons %v, want %v", got.neurons, want.neurons)
	case !slices.Equal(bits(got.bias), bits(want.bias)):
		return fmt.Sprintf("bias %v, want %v", got.bias, want.bias)
	case !slices.Equal(got.rows, want.rows):
		return fmt.Sprintf("rows %v, want %v", got.rows, want.rows)
	case !slices.Equal(got.rowOff, want.rowOff):
		return fmt.Sprintf("rowOff %v, want %v", got.rowOff, want.rowOff)
	case !slices.EqualFunc(got.ent, want.ent, func(a, b vecmath.Term) bool {
		return a.K == b.K && math.Float32bits(a.Coef) == math.Float32bits(b.Coef)
	}):
		return fmt.Sprintf("ent %v, want %v", got.ent, want.ent)
	case !slices.Equal(got.cols, want.cols):
		return fmt.Sprintf("cols %v, want %v", got.cols, want.cols)
	case !slices.EqualFunc(got.pos, want.pos, slices.Equal[[]int32]):
		return fmt.Sprintf("pos %v, want %v", got.pos, want.pos)
	}
	return ""
}

// TestUpdatePhaseSteadyStateAllocs pins the update phase's allocation
// budget (the CI allocation gate): once the layer-owned scratch is warm —
// stamp-scan partial lists, the row index, the column union and its
// positions, row buffers, applied counters, the reused SparseDelta — a
// batch's update allocates only what its handful of parallel sections cost
// (goroutine closures and wait groups), never per-row or per-cell scratch.
func TestUpdatePhaseSteadyStateAllocs(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	consumers := map[string]func(n *Network, alpha, invB float32){
		"step": func(n *Network, alpha, invB float32) {
			n.applyAdamBatch(alpha, invB, 2)
		},
		"extract+apply": func(n *Network, alpha, invB float32) {
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
// layers), reporting ns per stepped cell, and index-ns/batch: both layers'
// beginFold, the index build inside each consumer, timed on its own after
// the consumer's loop. The fold only reads the records, so re-arming them
// replays the same batch every iteration.
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
		{"extract+apply", func(n *Network, alpha, invB float32) int64 {
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
			b.StopTimer()
			var indexNS int64
			for i := 0; i < b.N; i++ {
				for _, rec := range n.records {
					rec.used = true
				}
				recs := n.takeRecords()
				t0 := time.Now()
				for _, l := range n.layers {
					l.beginFold(recs, 2)
				}
				indexNS += time.Since(t0).Nanoseconds()
			}
			b.ReportMetric(float64(indexNS)/float64(b.N), "index-ns/batch")
		})
	}
}
