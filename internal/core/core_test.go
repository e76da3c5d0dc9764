package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/lsh"
	"repro/internal/optim"
	"repro/internal/sampling"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// cell returns neuron j's cell for input i of m — the weights or one of
// their Adam moments — in the layer's orientation.
func (l *Layer) cell(m [][]float32, j, i int) *float32 {
	if l.inputMajor {
		return &m[i][j]
	}
	return &m[j][i]
}

// moment reads cell (j, i) of a weight moment widened to float32, as the
// step would find it: zero before the layer's first step allocates it.
func (l *Layer) moment(m []uint16, j, i int) float32 {
	if m == nil {
		return 0
	}
	r, c := j, i
	if l.inputMajor {
		r, c = i, j
	}
	return vecmath.WidenBF16(l.momentRow(m, int32(r))[c])
}

// biasMoment reads neuron j's bias moment the same way.
func biasMoment(m []float32, j int) float32 {
	if m == nil {
		return 0
	}
	return m[j]
}

// denseNetConfig builds a fully dense (no sampling) two-layer softmax
// network — the configuration under which SLIDE's sparse machinery must
// agree exactly with classical dense backprop.
func denseNetConfig(in, hidden, classes int) Config {
	return Config{
		InputDim: in,
		Seed:     13,
		Layers: []LayerConfig{
			{Size: hidden, Activation: ActReLU},
			{Size: classes, Activation: ActSoftmax},
		},
	}
}

// TestGradientCheck verifies the sparse message-passing backprop against
// numerical differentiation of the cross-entropy loss on a tiny dense
// network: the gradient the update phase folds from one element's
// extracted record (raw sums, so no averaging) must equal dLoss/dw to first
// order. This pins the core algorithmic claim that the sparse update
// computes true gradients.
func TestGradientCheck(t *testing.T) {
	const in, hidden, classes = 12, 6, 8
	n, err := NewNetwork(denseNetConfig(in, hidden, classes))
	if err != nil {
		t.Fatal(err)
	}
	st, err := newElemState(n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := sparse.MustNew(in, []int32{1, 4, 7, 10}, []float32{0.5, -0.3, 0.8, 0.2})
	labels := []int32{2, 5}

	lossAt := func() float64 {
		n.forwardElem(st, x, labels, modeTrain)
		out := &st.layers[len(st.layers)-1]
		var loss float64
		inv := 1 / float64(len(labels))
		for _, lab := range labels {
			p := float64(out.vals[lab])
			loss -= inv * math.Log(math.Max(p, 1e-30))
		}
		return loss
	}

	// Extract the analytic gradient of one element once.
	trainElem(n, st, 0, 0, 0, x, labels)
	d := n.ExtractDelta(nil, 1)
	grad := deltaCells(n, d, 1)

	check := func(layer, j, i int) {
		l := n.layers[layer]
		// Cells the delta does not carry (and biases, keyed at column -1)
		// have a zero gradient.
		analytic := float64(math.Float32frombits(grad[[3]int32{int32(layer), int32(j), int32(i)}]))
		const h = 1e-3
		var p *float32
		if i < 0 {
			p = &l.b[j]
		} else {
			p = l.cell(l.w, j, i)
		}
		orig := *p
		*p = orig + h
		up := lossAt()
		*p = orig - h
		down := lossAt()
		*p = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-analytic) > 1e-2*math.Max(1, math.Abs(numeric)) {
			t.Errorf("layer %d w[%d][%d]: numeric %.6f vs analytic %.6f", layer, j, i, numeric, analytic)
		}
	}
	// Sample weights across both layers, plus biases.
	for _, probe := range [][3]int{
		{1, 2, 0}, {1, 2, 3}, {1, 5, 5}, {1, 0, 1}, // output layer (label and non-label neurons)
		{0, 0, 1}, {0, 3, 4}, {0, 5, 7}, // hidden layer
		{1, 2, -1}, {0, 1, -1}, // biases
	} {
		check(probe[0], probe[1], probe[2])
	}
}

// TestSparseMatchesDenseWhenAllActive: with every neuron active, a full
// training iteration through the SLIDE engine must be mathematically
// identical to classical dense backprop. We verify by running the same
// batch through two fresh but identically seeded networks on 1 and on 4
// threads: weights must match modulo float addition order.
func TestSparseMatchesDenseWhenAllActive(t *testing.T) {
	ds := tinyDataset(t, 32)
	run := func(threads int) *Network {
		n, err := NewNetwork(denseNetConfig(512, 16, 32))
		if err != nil {
			t.Fatal(err)
		}
		_, err = n.Train(ds.Train[:256], ds.Test, TrainConfig{
			BatchSize: 32, Iterations: 6, Threads: threads, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := run(1)
	b := run(4)
	for li := range a.layers {
		for j := 0; j < a.layers[li].out; j++ {
			la, lb := a.layers[li], b.layers[li]
			for i := 0; i < la.in; i++ {
				wa, wb := *la.cell(la.w, j, i), *lb.cell(lb.w, j, i)
				if math.Abs(float64(wa-wb)) > 2e-3 {
					t.Fatalf("layer %d w[%d][%d]: %v vs %v", li, j, i, wa, wb)
				}
			}
		}
	}
}

// TestTrainingDeterministicAcrossThreads: training must give identical
// weights and moments regardless of worker count — on a sampled layer with
// the randomized vanilla retrieval, whose draws are seeded per batch
// position, and with table rebuilds published at fixed batches.
func TestTrainingDeterministicAcrossThreads(t *testing.T) {
	ds := tinyDataset(t, 64)
	run := func(threads int) *Network {
		cfg := tinyConfig(64)
		cfg.Layers[1].Strategy = sampling.KindVanilla
		cfg.RebuildN0 = 3
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Train(ds.Train[:256], ds.Test, TrainConfig{
			BatchSize: 32, Iterations: 8, Threads: threads, Seed: 7, EvalEvery: 0,
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	requireNetsBitIdentical(t, run(1), run(8), "1 vs 8 threads")
}

// TestLabelsForcedActive: during training, every true label must be in
// the output layer's active set (§3.1 — otherwise positives get no
// gradient).
func TestLabelsForcedActive(t *testing.T) {
	classes := 256
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	st, err := newElemState(n, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := tinyDataset(t, classes)
	for i := 0; i < 50; i++ {
		ex := &ds.Train[i]
		n.forwardElem(st, ex.Features, ex.Labels, modeTrain)
		out := &st.layers[1]
		present := map[int32]bool{}
		for _, id := range out.ids {
			present[id] = true
		}
		for _, lab := range ex.Labels {
			if !present[lab] {
				t.Fatalf("example %d: label %d not active", i, lab)
			}
		}
		// And no duplicates.
		if len(present) != len(out.ids) {
			t.Fatalf("example %d: duplicate active ids", i)
		}
	}
}

// TestEvalModeDoesNotPeek: sampled evaluation must not force labels in.
func TestEvalSampledIndependentOfLabels(t *testing.T) {
	classes := 128
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	st, err := newElemState(n, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := tinyDataset(t, classes)
	ex := &ds.Train[0]
	n.forwardElem(st, ex.Features, ex.Labels, modeEvalSampled)
	first := append([]int32(nil), st.layers[1].ids...)
	n.forwardElem(st, ex.Features, nil, modeEvalSampled)
	second := st.layers[1].ids
	if len(first) != len(second) {
		t.Fatalf("labels changed the sampled eval active set: %d vs %d ids", len(first), len(second))
	}
}

// TestRebuildScheduleExponential pins the §4.2 schedule step by step: a
// rebuild is built when due and published at that same boundary, and the
// next one is due N0·e^{λ(r+1)} batches later (r rebuilds so far) — so
// gaps grow per §4.2 and every rebuild step is fixed by the config.
func TestRebuildScheduleExponential(t *testing.T) {
	cfg := tinyConfig(128)
	cfg.RebuildN0 = 10
	cfg.RebuildLambda = 0.5
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Gaps 16, 27, 44, 73, 121.
	wantKicks := []int64{10, 26, 53, 97, 170}
	var kicks []int64
	gen, rebuilds, tables := n.rebuildGen, n.Rebuilds(), n.layers[1].Tables()
	for n.step = 1; n.step <= 200; n.step++ {
		n.rebuildTick(1)
		if n.rebuildGen == gen {
			continue
		}
		kicks = append(kicks, n.step)
		if n.Rebuilds() != rebuilds+1 || n.layers[1].Tables() == tables {
			t.Fatalf("step %d: built generation %d, but %d rebuilds counted (was %d) and the set published is the old one: %v",
				n.step, n.rebuildGen, n.Rebuilds(), rebuilds, n.layers[1].Tables() == tables)
		}
		gen, rebuilds, tables = n.rebuildGen, n.Rebuilds(), n.layers[1].Tables()
	}
	if !slices.Equal(kicks, wantKicks) {
		t.Fatalf("rebuilt at %v, want %v", kicks, wantKicks)
	}
}

// TestRebuildTracksWeights: after weights change, rebuilding must change
// table contents (neurons move buckets).
func TestRebuildTracksWeights(t *testing.T) {
	classes := 256
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	before := n.layers[1].Tables().Stats()
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 60, EvalEvery: 0, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	after := n.layers[1].Tables().Stats()
	if before.TotalStored == 0 || after.TotalStored == 0 {
		t.Fatalf("tables empty: before %+v after %+v", before, after)
	}
	if n.Rebuilds() == 0 {
		t.Fatal("no rebuilds in 60 iterations with N0=50")
	}
}

// TestPredictConsistency: Predict's top-1 must match Evaluate's argmax
// path on the same input.
func TestPredictConsistency(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Epochs: 2, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	ids, scores, err := n.Predict(ds.Test[0].Features, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 || len(scores) != 5 {
		t.Fatalf("Predict returned %d ids, %d scores", len(ids), len(scores))
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1] {
			t.Fatalf("scores not descending: %v", scores)
		}
	}
	// Sampled prediction returns valid class ids.
	sids, _, err := n.PredictSampled(ds.Test[0].Features, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range sids {
		if id < 0 || int(id) >= classes {
			t.Fatalf("sampled prediction id out of range: %d", id)
		}
	}
}

// TestEvaluatePAtK: P@1 ≥ ... consistency and range checks.
func TestEvaluatePAtK(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Epochs: 3, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	ev, err := n.Evaluate(ds.Test, 200, 4, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ev.N != 200 {
		t.Fatalf("N = %d", ev.N)
	}
	if ev.P1 < 0 || ev.P1 > 1 || ev.PAtK[5] < 0 || ev.PAtK[5] > 1 {
		t.Fatalf("precision out of range: %+v", ev)
	}
	if math.Abs(ev.PAtK[1]-ev.P1) > 1e-9 {
		t.Fatalf("P@1 inconsistency: %v vs %v", ev.PAtK[1], ev.P1)
	}
}

// TestConfigValidation covers constructor errors.
func TestConfigValidation(t *testing.T) {
	if _, err := NewNetwork(Config{InputDim: 0, Layers: []LayerConfig{{Size: 4}}}); err == nil {
		t.Error("zero InputDim accepted")
	}
	if _, err := NewNetwork(Config{InputDim: 4}); err == nil {
		t.Error("no layers accepted")
	}
	if _, err := NewNetwork(Config{InputDim: 4, Layers: []LayerConfig{{Size: 0}}}); err == nil {
		t.Error("zero layer size accepted")
	}
	if _, err := NewNetwork(Config{InputDim: 4, Layers: []LayerConfig{
		{Size: 4, Sampled: true, K: 0, L: 1, Beta: 2},
	}}); err == nil {
		t.Error("sampled layer without K accepted")
	}
	if _, err := NewNetwork(Config{InputDim: 4, Layers: []LayerConfig{
		{Size: 4, Activation: ActSoftmax},
		{Size: 4, Activation: ActSoftmax},
	}}); err == nil {
		t.Error("softmax on a non-final layer accepted")
	}
	if _, err := NewNetwork(Config{InputDim: 4, Layers: []LayerConfig{
		{Size: 8, Sampled: true, Hash: lsh.KindSimhash, K: 2, L: 2,
			Strategy: sampling.KindVanilla, Beta: 0},
	}}); err == nil {
		t.Error("vanilla strategy without Beta accepted")
	}
	if _, err := NewNetwork(Config{InputDim: 4, Layers: []LayerConfig{{Size: 4, Activation: 3}}}); err == nil {
		t.Error("unknown activation accepted")
	}
	if _, err := NewNetwork(Config{InputDim: 4, Layers: []LayerConfig{
		{Size: 8, Sampled: true, Hash: lsh.KindDWTA, K: 2, L: 2, Beta: 2, BinSize: -1},
	}}); err == nil {
		t.Error("negative BinSize accepted")
	}
	// Kinds that cannot run are refused before anything is allocated: the
	// removed hash families 1 and 3, the removed strategies 1 (TopK) and 2
	// (hard thresholding), the removed policy 1 (FIFO), and unknown ones.
	for _, bad := range []LayerConfig{
		{Hash: 1}, {Hash: 3}, {Hash: 9}, {Strategy: 1}, {Strategy: 2}, {Strategy: 9}, {Policy: 1}, {Policy: 9},
	} {
		bad.Size, bad.Sampled, bad.K, bad.L, bad.Beta = 8, true, 2, 2, 2
		if _, err := NewNetwork(Config{InputDim: 4, Layers: []LayerConfig{bad}}); err == nil {
			t.Errorf("hash %v, strategy %v, policy %v accepted", bad.Hash, bad.Strategy, bad.Policy)
		}
	}
	for _, bad := range []struct {
		n0     int
		lambda float64
	}{{-3, 0.1}, {50, math.NaN()}, {50, math.Inf(1)}, {50, math.Inf(-1)}} {
		if _, err := NewNetwork(Config{InputDim: 4, Layers: []LayerConfig{{Size: 4}}, RebuildN0: bad.n0, RebuildLambda: bad.lambda}); err == nil {
			t.Errorf("rebuild schedule N0=%d λ=%v accepted", bad.n0, bad.lambda)
		}
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, bad := range []func(a *optim.Adam){
		func(a *optim.Adam) { a.LR = nan },
		func(a *optim.Adam) { a.LR = inf },
		func(a *optim.Adam) { a.LR = -1e-3 },
		func(a *optim.Adam) { a.Beta1 = 1 },
		func(a *optim.Adam) { a.Beta1 = -0.1 },
		func(a *optim.Adam) { a.Beta1 = nan },
		func(a *optim.Adam) { a.Beta2 = 1 },
		func(a *optim.Adam) { a.Beta2 = nan },
		func(a *optim.Adam) { a.Eps = 0 },
		func(a *optim.Adam) { a.Eps = -1e-8 },
		func(a *optim.Adam) { a.Eps = nan },
		func(a *optim.Adam) { a.Eps = inf },
	} {
		adam := optim.NewAdam(1e-3)
		bad(&adam)
		if _, err := NewNetwork(Config{InputDim: 4, Layers: []LayerConfig{{Size: 4}}, Adam: adam}); err == nil {
			t.Errorf("Adam %+v accepted", adam)
		}
	}
	if _, err := NewNetwork(Config{InputDim: 4, Layers: []LayerConfig{{Size: 4}}, Adam: optim.Adam{LR: 1e-3, Eps: 1e-8}}); err != nil {
		t.Errorf("Adam with zero betas refused: %v", err)
	}
}

// TestRebuildGapSaturates: a schedule whose next gap passes the int64
// range (N0 = 2, λ = 1000 makes it +Inf) runs its first rebuild and no
// other, and the next due step does not overflow.
func TestRebuildGapSaturates(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	cfg := tinyConfig(classes)
	cfg.RebuildN0 = 2
	cfg.RebuildLambda = 1000
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Train(ds.Train, ds.Test, TrainConfig{BatchSize: 32, Iterations: 12, Threads: 1, Seed: 3, EvalEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilds != 1 || n.nextAt != math.MaxInt64 {
		t.Fatalf("%d rebuilds in 12 batches, next due at %d; want 1, never", res.Rebuilds, n.nextAt)
	}
	if g := rebuildGap(1, -10, 1, 100); g != 1 {
		t.Fatalf("gap N0=1 λ=-10 = %d, want the floor 1", g)
	}
	if g := rebuildGap(2, 1000, 1, math.MaxInt64-2); g != math.MaxInt64-2 {
		t.Fatalf("gap of +Inf saturated to %d, want %d", g, int64(math.MaxInt64-2))
	}
}

// TestConfigValidateShapeBound: InputDim, every layer size and every
// layer's in×out weight count must stay below 2^31, the reach of the int32
// neuron ids and delta offsets — checked before anything is allocated, so
// these cases only run validate.
func TestConfigValidateShapeBound(t *testing.T) {
	layers := func(sizes ...int) []LayerConfig {
		var ls []LayerConfig
		for _, s := range sizes {
			ls = append(ls, LayerConfig{Size: s})
		}
		return ls
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		wantOK bool
	}{
		{"input dim 2^31-1", Config{InputDim: math.MaxInt32, Layers: layers(1)}, true},
		{"input dim 2^31", Config{InputDim: 1 << 31, Layers: layers(1)}, false},
		{"layer size 2^31", Config{InputDim: 1, Layers: layers(1 << 31)}, false},
		{"in×out just below 2^31", Config{InputDim: 1 << 16, Layers: layers(1<<15 - 1)}, true},
		{"in×out 2^31", Config{InputDim: 1 << 16, Layers: layers(1 << 15)}, false},
		{"second layer in×out 2^31", Config{InputDim: 4, Layers: layers(1<<16, 1<<15)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.validate(); (err == nil) != tc.wantOK {
				t.Fatalf("validate = %v, want ok=%v", err, tc.wantOK)
			}
		})
	}
}

// TestAllHashFamiliesTrain: the engine must train with every family.
func TestAllHashFamiliesTrain(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	for _, kind := range []lsh.Kind{lsh.KindSimhash, lsh.KindDWTA} {
		cfg := tinyConfig(classes)
		cfg.Layers[1].Hash = kind
		cfg.Layers[1].RangePow = 5
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		res, err := n.Train(ds.Train[:512], ds.Test, TrainConfig{Epochs: 2, Seed: 9})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.FinalAcc < 1.0/float64(classes)*2 {
			t.Errorf("%v: P@1 %.3f no better than chance", kind, res.FinalAcc)
		}
	}
}

// TestValidateSampledLayerCaps pins the edges of the caps on what a
// sampled layer sizes beyond its weights: K·L ≤ 4096 hash functions and
// L·2^RangePow ≤ 2^27 table offsets, with the automatic RangePow counted
// at 18. The largest configs in use, K = 9 and L = 50 at the automatic
// RangePow, pass. Only validate runs, so nothing is sized.
func TestValidateSampledLayerCaps(t *testing.T) {
	for _, tc := range []struct {
		k, l, rangePow int
		ok             bool
	}{
		{9, 50, 0, true},
		{8, 512, 0, true},
		{64, 64, 10, true},
		{4096, 1, 0, true},
		{4097, 1, 0, false},
		{1, 4097, 10, false},
		{2, 513, 0, false},
		{2, 1, 27, true},
		{2, 2, 27, false},
		{2, 1, 28, false},
	} {
		cfg := Config{InputDim: 4, Layers: []LayerConfig{{
			Size: 8, Activation: ActSoftmax, Sampled: true, Hash: lsh.KindSimhash,
			K: tc.k, L: tc.l, RangePow: tc.rangePow, Beta: 2,
		}}}
		if err := cfg.withDefaults().validate(); (err == nil) != tc.ok {
			t.Errorf("K=%d L=%d RangePow=%d: validate = %v, want accepted %v", tc.k, tc.l, tc.rangePow, err, tc.ok)
		}
	}
}

// TestStrategiesTrain: all retrieval strategies must drive learning.
func TestStrategiesTrain(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	for _, strat := range []sampling.Kind{sampling.KindVanilla, sampling.KindRandom} {
		cfg := tinyConfig(classes)
		cfg.Layers[1].Strategy = strat
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		res, err := n.Train(ds.Train[:512], ds.Test, TrainConfig{Epochs: 2, Seed: 9})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if res.FinalAcc == 0 {
			t.Errorf("%v: zero accuracy", strat)
		}
	}
}

// TestTrainConfigStops: target accuracy and max seconds terminate runs.
func TestTrainConfigStops(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Train(ds.Train, ds.Test, TrainConfig{
		Iterations: 10000, EvalEvery: 5, TargetAcc: 0.01, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 10000 {
		t.Fatal("TargetAcc did not stop training")
	}
}

// TestContinuedTraining: calling Train twice resumes from the prior step.
func TestContinuedTraining(t *testing.T) {
	classes := 64
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 5, EvalEvery: 0, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if n.Step() != 5 {
		t.Fatalf("step = %d", n.Step())
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 5, EvalEvery: 0, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if n.Step() != 10 {
		t.Fatalf("step after resume = %d", n.Step())
	}
}

// TestEmptyTrainRejected: empty splits error out.
func TestEmptyTrainRejected(t *testing.T) {
	n, err := NewNetwork(tinyConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(nil, nil, TrainConfig{}); err == nil {
		t.Fatal("empty training split accepted")
	}
}

// TestTrainRejectsNegativeSizes: a negative size is an error naming the
// field — not a panic, and not a run that trains nothing and reports
// success.
func TestTrainRejectsNegativeSizes(t *testing.T) {
	ds := tinyDataset(t, 64)
	n, err := NewNetwork(tinyConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, field string
		cfg         TrainConfig
	}{
		{"threads -1", "Threads", TrainConfig{Threads: -1, Iterations: 2}},
		{"batch -1", "BatchSize", TrainConfig{BatchSize: -1, Iterations: 2}},
		{"batch -4 epochs derived", "BatchSize", TrainConfig{BatchSize: -4}},
		{"iterations -3", "Iterations", TrainConfig{Iterations: -3}},
		{"epochs -2", "Epochs", TrainConfig{Epochs: -2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := n.Train(ds.Train, ds.Test, tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("Train(%+v) = %v, want an error naming %s", tc.cfg, err, tc.field)
			}
		})
	}
	if n.Step() != 0 {
		t.Fatalf("rejected configs trained %d iterations", n.Step())
	}
}

// TestTrainConfigClampsThreads: a worker count past the batch is cut to the
// batch before any worker state is allocated, and the batch to the training
// split first. It checks withDefaults alone: no worker is started.
func TestTrainConfigClampsThreads(t *testing.T) {
	for _, tc := range []struct {
		cfg                TrainConfig
		trainSize          int
		batch, wantThreads int
	}{
		{TrainConfig{Threads: 1 << 30}, 1000, 128, 128},
		{TrainConfig{Threads: 1 << 30, BatchSize: 5000}, 1000, 1000, 1000},
		{TrainConfig{Threads: 1 << 30, BatchSize: 16}, 1000, 16, 16},
		{TrainConfig{Threads: 3, BatchSize: 16}, 1000, 16, 3},
		{TrainConfig{BatchSize: 1}, 1000, 1, 1},
	} {
		got := tc.cfg.withDefaults(tc.trainSize)
		if got.BatchSize != tc.batch || got.Threads != tc.wantThreads {
			t.Errorf("%+v over %d examples: batch %d, threads %d; want %d, %d",
				tc.cfg, tc.trainSize, got.BatchSize, got.Threads, tc.batch, tc.wantThreads)
		}
	}
}

// TestNumParams: parameter accounting.
func TestNumParams(t *testing.T) {
	n, err := NewNetwork(denseNetConfig(10, 4, 6))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(10*4 + 4 + 4*6 + 6)
	if n.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", n.NumParams(), want)
	}
}

func TestNetworkAccessors(t *testing.T) {
	classes := 64
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	if n.NumLayers() != 2 || n.OutputDim() != classes {
		t.Fatalf("accessors: %d layers, %d out", n.NumLayers(), n.OutputDim())
	}
	if n.Layer(0).Sampled() || !n.Layer(1).Sampled() {
		t.Fatal("Sampled flags wrong")
	}
	if n.Layer(1).In() != 64 || n.Layer(1).Out() != classes {
		t.Fatal("layer dims wrong")
	}
	if len(n.Layer(0).Weights(0)) != 512 {
		t.Fatal("weight row length wrong")
	}
	_ = n.Layer(0).Bias(0)
	ds := tinyDataset(t, classes)
	_ = ds
}
