package core

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/hashtable"
	"repro/internal/lsh"
)

// naiveTables builds layer l's generation-gen table set the slow way —
// one HashDense per live row into a whole code matrix, then one
// single-worker BuildParallel — as the reference the eight-row block
// pipeline must reproduce bucket for bucket.
func naiveTables(l *Layer, gen uint64) *hashtable.Table {
	ref := l.Tables().Shadow(gen)
	nf := l.fam.NumFuncs()
	codes := make([]uint32, l.out*nf)
	for j := 0; j < l.out; j++ {
		l.fam.HashDense(l.w[j], codes[j*nf:(j+1)*nf])
	}
	ref.BuildParallel(l.out, codes, nf, 1)
	return ref
}

// TestShadowBuildMatchesInlineBuild: a shadow built from the live rows is
// bucket-for-bucket the same at 1 and at 3 workers, and equal to a naive
// row-by-row build at the same generation — so the tables a scheduled
// rebuild publishes depend on the weights and the generation, not on the
// worker count.
func TestShadowBuildMatchesInlineBuild(t *testing.T) {
	classes := 256
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	// Train a little so the weights (and thus the codes) are non-trivial.
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 20, Seed: 2, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	l := n.layers[1]
	const gen = 7

	one := l.buildShadow(gen, 1)
	if !one.Equal(l.buildShadow(gen, 3)) {
		t.Fatal("shadow builds of the same rows and generation differ at 1 and 3 workers")
	}
	if !one.Equal(naiveTables(l, gen)) {
		t.Fatal("pipeline build diverged from a row-by-row HashDense + Insert build at the same generation")
	}

	// A different generation draws different reservoir streams; it may
	// only coincide when no bucket ever overflowed, so don't assert
	// inequality — just that it builds and stores every neuron.
	other := l.buildShadow(gen+1, 1)
	if got, want := other.Stats().TotalSeen, l.Tables().L()*l.out; got != want {
		t.Fatalf("generation %d shadow saw %d insertions, want %d", gen+1, got, want)
	}
}

// TestBlockBuildEdgeRows covers what random weights never reach: layers
// whose row count is not a multiple of 8 (the padded tail block) over a
// fan-in that is not one either (the transpose's tail columns), with
// all-zero rows and rows of one non-zero weight, whose DWTA bins are
// mostly empty, so densify runs inside a block. For both families, at
// mixed and packed addressing, the pipeline at 1 and 3 workers must equal
// the row-by-row HashDense + BuildParallel reference.
func TestBlockBuildEdgeRows(t *testing.T) {
	for _, kind := range []lsh.Kind{lsh.KindSimhash, lsh.KindDWTA} {
		for _, rangePow := range []int{2, 18} { // mixed, packed
			for _, out := range []int{1, 7, 13, 250} {
				n := mustNet(t, Config{
					InputDim: 40,
					Seed:     uint64(out),
					Layers: []LayerConfig{
						{Size: 20, Activation: ActReLU},
						{
							Size: out, Activation: ActSoftmax,
							Sampled: true, Hash: kind, K: 3, L: 7, RangePow: rangePow,
							BucketSize: 4, Beta: 4,
						},
					},
				})
				l := n.layers[1]
				for j, w := range l.w {
					switch j % 5 {
					case 1:
						clear(w)
					case 3:
						v := w[j%len(w)]
						clear(w)
						w[j%len(w)] = v
					}
				}
				ref := naiveTables(l, 5)
				for _, workers := range []int{1, 3} {
					if !l.buildShadow(5, workers).Equal(ref) {
						t.Fatalf("%v RangePow %d, %d rows, %d workers: block build differs from the row-by-row reference", kind, rangePow, out, workers)
					}
				}
			}
		}
	}
}

// TestScheduledRebuildPublishes runs the scheduler end to end: a training
// run must build and publish rebuilds at batch boundaries, account their
// build time, and leave the network fully servable. Its last boundary is
// due, so the tables Train returns with are that boundary's build: every
// sampled layer's set equals a build of the same generation from the
// weights Train leaves.
func TestScheduledRebuildPublishes(t *testing.T) {
	classes := 256
	ds := tinyDataset(t, classes)
	cfg := tinyConfig(classes)
	cfg.RebuildN0 = 5
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := n.layers[1].Tables()
	// Gaps 5, 6, 6, 7, 8: rebuilds after batches 5, 10, 16, 22, 29 and 37.
	res, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 37, Seed: 3, EvalEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilds != 6 {
		t.Fatalf("%d rebuilds in 37 iterations with N0=5, want 6", res.Rebuilds)
	}
	if res.RebuildBuildNS <= 0 || res.RebuildStallNS != res.RebuildBuildNS {
		t.Fatalf("run recorded %dns of builds and a stall of %dns over %d rebuilds, want the same positive time", res.RebuildBuildNS, res.RebuildStallNS, res.Rebuilds)
	}
	after := n.layers[1].Tables()
	if before == after {
		t.Fatal("table handle still points at the construction-time set after published rebuilds")
	}
	if after.Stats().TotalStored == 0 {
		t.Fatal("published tables are empty")
	}
	for li, l := range n.layers {
		if l.Sampled() && !l.Tables().Equal(l.build(n.rebuildGen, 1)) {
			t.Fatalf("layer %d: tables after a run ending on a rebuild differ from generation %d built from the live weights", li, n.rebuildGen)
		}
	}
	if _, _, err := n.PredictSampled(ds.Test[0].Features, 3); err != nil {
		t.Fatal(err)
	}
}

// TestScheduledRebuildStartsNoGoroutine: a scheduled rebuild is built and
// published on the training loop's goroutine at its due boundary, so no
// goroutine outlives that boundary. At one worker the build starts none
// at all; at three, its helpers are joined before the boundary returns
// and exit right after.
func TestScheduledRebuildStartsNoGoroutine(t *testing.T) {
	classes := 256
	ds := tinyDataset(t, classes)
	cfg := tinyConfig(classes)
	cfg.RebuildN0 = 4
	cfg.RebuildLambda = 1e-9 // gap 4
	n := mustNet(t, cfg)
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 2, BatchSize: 32, Seed: 1, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		before := runtime.NumGoroutine()
		gen, rebuilds := n.rebuildGen, n.Rebuilds()
		for range 4 {
			n.step++
			n.rebuildTick(workers)
			got := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); workers > 1 && got > before && time.Now().Before(deadline); got = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if got > before {
				t.Fatalf("%d workers, step %d: %d goroutines after the batch boundary, %d before the schedule ran", workers, n.step, got, before)
			}
		}
		if n.rebuildGen != gen+1 || n.Rebuilds() != rebuilds+1 {
			t.Fatalf("%d workers: %d builds and %d rebuilds in 4 batches of a gap-4 schedule, want 1 each",
				workers, n.rebuildGen-gen, n.Rebuilds()-rebuilds)
		}
	}
}

// TestScheduledRebuildCopiesNoWeights: a Train call over the batch that
// kicks a rebuild of a wide sampled layer allocates less heap than one
// out×in float copy of that layer's weights — the build hashes the live
// rows in place — and the tables it publishes are the naive build's of
// the weights at the kick. Its rows span several build chunks.
func TestScheduledRebuildCopiesNoWeights(t *testing.T) {
	const classes, hidden = 10000, 256
	ds := tinyDataset(t, classes)
	cfg := tinyConfig(classes)
	cfg.Layers[0].Size = hidden
	cfg.RebuildN0 = 1 << 30
	n := mustNet(t, cfg)
	tc := TrainConfig{Iterations: 1, BatchSize: 16, Threads: 2, Seed: 4, EvalEvery: 0, SkipFinalEval: true}
	if _, err := n.Train(ds.Train, ds.Test, tc); err != nil { // training state and scratch arrive
		t.Fatal(err)
	}
	n.nextAt = n.step + 1 // the next batch's boundary kicks
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := n.Train(ds.Train, ds.Test, tc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilds != 1 {
		t.Fatalf("%d rebuilds published by the kick batch, want 1", res.Rebuilds)
	}
	l := n.layers[1]
	if allocated, weights := after.TotalAlloc-before.TotalAlloc, uint64(4*l.out*l.in); allocated >= weights {
		t.Fatalf("the kick batch allocated %d bytes, not below the %d bytes of one weight copy", allocated, weights)
	}
	if !l.Tables().Equal(naiveTables(l, n.rebuildGen)) {
		t.Fatal("published tables differ from a naive build of the weights at the kick")
	}
}

// TestRebuildPublishRaceStress is the -race proof for the concurrency the
// table lifecycle keeps. Each cycle first trains with a rebuild kicked at
// every batch boundary (N0 = 1), so every build's workers hash rows the
// batch workers have just stepped and each publish lands between batches.
// Then — with the weights quiesced — it builds another set and publishes
// it while a shared Predictor hammers sampled and exact queries, so the
// builds' reads and the atomic table swap land in the middle of live
// traffic.
//
// The one overlap deliberately kept out is predictor weight reads
// concurrent with training weight writes: that is the paper's HOGWILD
// weak-consistency design, racy on purpose and predating this lifecycle,
// and the detector would (correctly) report it.
func TestRebuildPublishRaceStress(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	cfg := tinyConfig(classes)
	cfg.RebuildN0 = 1
	cfg.RebuildLambda = 1e-9 // keep the gap at ~1 iteration all run
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := n.NewPredictor()
	if err != nil {
		t.Fatal(err)
	}

	cycles := 3
	if testing.Short() {
		cycles = 1
	}
	totalRebuilds := 0
	for cycle := 0; cycle < cycles; cycle++ {
		// Phase 1: a build published at every batch boundary.
		res, err := n.Train(ds.Train, ds.Test, TrainConfig{
			Iterations: 12, BatchSize: 32, Seed: uint64(7 + cycle), EvalEvery: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		totalRebuilds += res.Rebuilds

		// Phase 2: weights quiesced; a fresh set is built and published
		// while concurrent predictions are in full flight.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					x := ds.Test[(g*37+i)%len(ds.Test)].Features
					var err error
					if i%2 == 0 {
						_, _, err = predictSampled(p, x, 3)
					} else {
						_, _, err = p.Predict(x, 3)
					}
					if err != nil {
						t.Errorf("predictor %d: %v", g, err)
						return
					}
				}
			}(g)
		}
		n.RebuildTables(2) // publish the swap under live traffic
		totalRebuilds++
		close(stop)
		wg.Wait()
	}
	if totalRebuilds < cycles*2 {
		t.Fatalf("stress run published only %d rebuilds", totalRebuilds)
	}
	// Serving must still be coherent after the dust settles.
	if _, err := n.Evaluate(ds.Test, 100, 2, 1); err != nil {
		t.Fatal(err)
	}
}

// TestRestorePathsShareTableGeneration pins the replica-to-replica
// determinism guarantee against the generation and rebuild counters:
// every restore rebuilds at generation 1, whatever generation the saved
// network had reached, so replicas loaded from one file — through a
// reader that reports its length and through one that does not — get
// bucket-for-bucket identical tables, equal to the source's weights built
// at generation 1, and the same §4.2 schedule: a restore is not a
// scheduled rebuild, so training both past their second rebuild keeps
// tables and Rebuilds() equal.
func TestRestorePathsShareTableGeneration(t *testing.T) {
	classes := 256
	ds := tinyDataset(t, classes)
	// BucketSize 2 forces reservoir churn so generation mismatches show.
	cfg := tinyConfig(classes)
	cfg.Layers[1].BucketSize = 2
	cfg.RebuildN0 = 8
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 20, Seed: 6, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	if n.rebuildGen < 3 {
		t.Fatalf("source network at table generation %d, want a few rebuilds past construction", n.rebuildGen)
	}
	var file bytes.Buffer
	if err := n.SaveModel(&file); err != nil {
		t.Fatal(err)
	}

	sized, err := LoadModel(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := LoadModel(io.MultiReader(bytes.NewReader(file.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Network{"sized": sized, "streamed": streamed} {
		if m.rebuildGen != 1 || !m.layers[1].Tables().Equal(naiveTables(n.layers[1], 1)) {
			t.Fatalf("%s load: tables at generation %d differ from the source's weights built at generation 1", name, m.rebuildGen)
		}
	}

	// Gaps are 8 then int(8·e^0.1) = 8: rebuilds run after batches 8 and
	// 16 on both networks, unless a restore build shifted the exponent.
	tc := TrainConfig{BatchSize: 32, Iterations: 18, Threads: 1, Seed: 3, EvalEvery: 0}
	for _, m := range []*Network{sized, streamed} {
		if _, err := m.Train(ds.Train, ds.Test, tc); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := sized.Rebuilds(), streamed.Rebuilds(); a != 2 || b != 2 {
		t.Fatalf("Rebuilds() after 18 batches: %d and %d, want 2 scheduled rebuilds each", a, b)
	}
	if !sized.layers[1].Tables().Equal(streamed.layers[1].Tables()) {
		t.Fatal("replicas loaded from one file trained to different tables (rebuild schedules diverged)")
	}
}

// TestRebuildAfterRestore: a restore from a file saved before the source
// trained on leaves tables equal to a fresh build from the restored
// weights, not to anything the drifted source holds.
func TestRebuildAfterRestore(t *testing.T) {
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
	var file bytes.Buffer
	if err := n.SaveModel(&file); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 10, Seed: 5, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	n.RebuildTables(0)
	m, err := LoadModel(&file)
	if err != nil {
		t.Fatal(err)
	}
	l := m.layers[1]
	if !l.Tables().Equal(naiveTables(l, m.rebuildGen)) {
		t.Fatal("tables after LoadModel diverged from a fresh build of the restored weights")
	}
	if l.Tables().Equal(naiveTables(n.layers[1], m.rebuildGen)) {
		t.Fatal("tables after LoadModel match the drifted source's weights")
	}
}

// TestRebuildSteadyStateAllocs pins the allocation budget of a
// steady-state rebuild (the CI allocation gate): once the per-layer chunk
// code buffer is warm, each further rebuild
// allocates only the fresh shadow table set itself — O(L) small objects
// plus its arena slab — never O(rows) code scratch or O(rows*dim)
// snapshots.
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
	// Budget: the shadow Table (struct, offsets, ids) and the placement
	// workers' scratch for the sampled layer, plus small constant
	// overhead. L=16 here, so anything O(rows)=512 or per table would
	// blow far past the bound.
	if allocs > 64 {
		t.Fatalf("steady-state rebuild allocated %.0f objects; want <= 64 (O(L) shadow-table setup only)", allocs)
	}
}

// tableFingerprint hashes every bucket's length and ids, in table then
// bucket order.
func tableFingerprint(tb *hashtable.Table) uint64 {
	h := fnv.New64a()
	put := func(u uint32) { h.Write(binary.LittleEndian.AppendUint32(nil, u)) }
	for ti := 0; ti < tb.L(); ti++ {
		for bi := 0; bi < tb.NumBuckets(); bi++ {
			ids := tb.BucketAt(ti, bi)
			put(uint32(len(ids)))
			for _, id := range ids {
				put(id)
			}
		}
	}
	return h.Sum64()
}

// TestTableFingerprintGolden pins the sampled layer's tables — after
// construction, and after 30 one-thread batches with two scheduled
// rebuilds — to fingerprints recorded at 45e72ec, the last
// commit that built them through the code-memo path: the build pipeline
// may be restructured, the tables it produces may not move. BucketSize 4
// makes every bucket overflow, so insertion order and the generation's
// reservoir stream both show. The simhash after-training value was
// re-recorded when vanilla retrieval draws became seeded per batch
// position, which moves the weights the rebuilds hash; the builds
// themselves did not change. All four values were re-recorded when the
// weight init moved to row-keyed streams, which moves the weights every
// build hashes; TestTableFingerprintFormulaGolden pins the build apart
// from the init. The simhash after-training value was re-recorded again
// when the weights' Adam moments moved to bfloat16, which moves the
// trained weights (0xfff902a8709a1dd3 on float32 moments). Recorded on
// amd64 (see TestTrainingGoldenHash).
func TestTableFingerprintGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64, running on %s", runtime.GOARCH)
	}
	classes := 256
	ds := tinyDataset(t, classes)
	for _, tc := range []struct {
		hash                lsh.Kind
		wantInit, wantTrain uint64
	}{
		{lsh.KindSimhash, 0xf4b00a018b0418b2, 0x80e4929df74728a4},
		{lsh.KindDWTA, 0x0fafad28d69a89b7, 0xeeff4957630adda7},
	} {
		cfg := tinyConfig(classes)
		cfg.Layers[1].Hash = tc.hash
		cfg.Layers[1].BucketSize = 4
		cfg.RebuildN0 = 10
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotInit := tableFingerprint(n.layers[1].Tables())
		// The schedule fires after batch 10, the first call's last, and
		// again after batch 21. Each build hashes the weights at its
		// boundary and is published there.
		first, err := n.Train(ds.Train, ds.Test, TrainConfig{BatchSize: 32, Iterations: 10, Threads: 1, Seed: 9, EvalEvery: 0})
		if err != nil {
			t.Fatal(err)
		}
		second, err := n.Train(ds.Train, ds.Test, TrainConfig{BatchSize: 32, Iterations: 20, Threads: 1, Seed: 9, EvalEvery: 0})
		if err != nil {
			t.Fatal(err)
		}
		if first.Rebuilds != 1 || first.RebuildBuildNS == 0 || second.Rebuilds != 1 || second.RebuildBuildNS == 0 {
			t.Fatalf("%v: want one rebuild per call, got %d (build %dns) then %d (build %dns)",
				tc.hash, first.Rebuilds, first.RebuildBuildNS, second.Rebuilds, second.RebuildBuildNS)
		}
		if gotTrain := tableFingerprint(n.layers[1].Tables()); gotInit != tc.wantInit || gotTrain != tc.wantTrain {
			t.Errorf("%v: table fingerprints %#x after NewNetwork and %#x after training, want %#x and %#x",
				tc.hash, gotInit, gotTrain, tc.wantInit, tc.wantTrain)
		}
	}
}

// TestTableFingerprintFormulaGolden pins the table build independently of
// the weight init: TestTableFingerprintGolden's sampled layer, with
// formulaModel's weights, rebuilt at generation 2 on one and on two
// workers, recorded before the init drew each storage row from its own
// stream. A change to the init may not move these; a change to the build
// must.
func TestTableFingerprintFormulaGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64, running on %s", runtime.GOARCH)
	}
	for _, tc := range []struct {
		hash lsh.Kind
		want uint64
	}{
		{lsh.KindSimhash, 0xdf1b25f8127038b5},
		{lsh.KindDWTA, 0x5dc4d26dbd2d7c82},
	} {
		cfg := tinyConfig(256)
		cfg.Layers[1].Hash = tc.hash
		cfg.Layers[1].BucketSize = 4
		for _, workers := range []int{1, 2} {
			n := formulaModel(t, cfg)
			n.RebuildTables(workers)
			if got := tableFingerprint(n.layers[1].Tables()); got != tc.want {
				t.Errorf("%v at %d workers: table fingerprint %#x, want %#x", tc.hash, workers, got, tc.want)
			}
		}
	}
}
