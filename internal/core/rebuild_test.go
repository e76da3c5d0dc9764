package core

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"

	"repro/internal/hashtable"
	"repro/internal/lsh"
)

// naiveTables builds layer l's generation-gen table set the slow way —
// one HashDense and one all-table Insert per live row — as the reference
// the chunked block-hash pipeline must reproduce bucket for bucket.
func naiveTables(l *Layer, gen uint64) *hashtable.Table {
	ref := l.Tables().Shadow(gen)
	codes := make([]uint32, l.fam.NumFuncs())
	for j := 0; j < l.out; j++ {
		l.fam.HashDense(l.w[j], codes)
		ref.Insert(uint32(j), codes)
	}
	return ref
}

// TestShadowBuildMatchesSyncRebuild is the async-vs-sync equivalence
// proof: from one weight snapshot and one generation, a shadow built on a
// background goroutine is bucket-for-bucket identical to one built
// inline — and both match a build straight from the live rows while the
// weights are quiesced. This is what makes the background lifecycle a
// pure scheduling change: the tables training ends up with are the same
// tables a stop-the-world rebuild of the same snapshot would have
// produced.
func TestShadowBuildMatchesSyncRebuild(t *testing.T) {
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

	snap := l.snapshotRows(1)
	inline := l.buildShadow(gen, snap, 1)

	bgShadow := inline
	bg := make(chan struct{})
	go func() {
		bgShadow = l.buildShadow(gen, snap, 3)
		close(bg)
	}()
	<-bg
	if !inline.Equal(bgShadow) {
		t.Fatal("background shadow build diverged from inline build of the same snapshot and generation")
	}

	// With the weights quiesced, staging the live rows chunk by chunk
	// (what RebuildTables does) builds the same tables as the snapshot.
	live := l.buildShadow(gen, nil, 2)
	if !inline.Equal(live) {
		t.Fatal("build from live rows diverged from build from their snapshot")
	}

	if !inline.Equal(naiveTables(l, gen)) {
		t.Fatal("pipeline build diverged from a row-by-row HashDense + Insert build at the same generation")
	}

	// A different generation draws different reservoir streams; it may
	// only coincide when no bucket ever overflowed, so don't assert
	// inequality — just that it builds and stores every neuron.
	other := l.buildShadow(gen+1, snap, 1)
	if got, want := other.Stats().TotalSeen, l.Tables().L()*l.out; got != want {
		t.Fatalf("generation %d shadow saw %d insertions, want %d", gen+1, got, want)
	}
}

// TestAsyncRebuildPublishes runs the scheduler end to end: a training run
// on the default (non-blocking) lifecycle must kick background builds,
// publish them at batch boundaries, account overlapped build time, and
// leave the network fully servable.
func TestAsyncRebuildPublishes(t *testing.T) {
	classes := 256
	ds := tinyDataset(t, classes)
	cfg := tinyConfig(classes)
	cfg.RebuildN0 = 5
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := n.layers[1].Tables()
	res, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 40, Seed: 3, EvalEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilds == 0 {
		t.Fatal("no rebuilds published in 40 iterations with N0=5")
	}
	if res.RebuildBuildNS <= 0 {
		t.Fatalf("async run recorded no overlapped build time (rebuilds=%d)", res.Rebuilds)
	}
	after := n.layers[1].Tables()
	if before == after {
		t.Fatal("table handle still points at the construction-time set after published rebuilds")
	}
	if after.Stats().TotalStored == 0 {
		t.Fatal("published tables are empty")
	}
	if n.pending != nil {
		t.Fatal("Train returned with a background build still pending")
	}
	if _, _, err := n.PredictSampled(ds.Test[0].Features, 3); err != nil {
		t.Fatal(err)
	}

	// The sync mode still works and charges whole rebuilds as stall.
	nSync, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resSync, err := nSync.Train(ds.Train, ds.Test, TrainConfig{
		Iterations: 40, Seed: 3, EvalEvery: 0, SyncRebuild: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resSync.Rebuilds == 0 || resSync.RebuildStallNS <= 0 {
		t.Fatalf("sync run: rebuilds=%d stall=%dns", resSync.Rebuilds, resSync.RebuildStallNS)
	}
	if resSync.RebuildBuildNS != 0 {
		t.Fatalf("sync run recorded overlapped build time: %dns", resSync.RebuildBuildNS)
	}
}

// TestAsyncRebuildRaceStress is the -race proof for the non-blocking
// lifecycle. Each cycle first trains with background rebuilds perpetually
// in flight (N0=1 re-arms the schedule every batch boundary, so detached
// builds overlap the batch-boundary weight steps), then — with the weights
// quiesced — kicks another background build and publishes it while a
// shared Predictor hammers sampled and exact queries, so the atomic table
// swap lands in the middle of live traffic.
//
// The one overlap deliberately kept out is predictor weight reads
// concurrent with training weight writes: that is the paper's HOGWILD
// weak-consistency design, racy on purpose and predating this lifecycle,
// and the detector would (correctly) report it. Everything this PR adds —
// snapshot-fed builds racing training, swap publication racing readers —
// runs concurrently here and must stay silent under -race.
func TestAsyncRebuildRaceStress(t *testing.T) {
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
		// Phase 1: background builds in flight across training batches.
		res, err := n.Train(ds.Train, ds.Test, TrainConfig{
			Iterations: 12, BatchSize: 32, Seed: uint64(7 + cycle), EvalEvery: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		totalRebuilds += res.Rebuilds

		// Phase 2: weights quiesced; a fresh background build runs and is
		// published while concurrent predictions are in full flight.
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
						_, _, err = p.PredictSampled(x, 3)
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
		n.startBackgroundRebuild(2)
		n.finishPendingRebuild() // publish the swap under live traffic
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
// restoring the same weights via v1 Load (into a freshly constructed
// network that already consumed generation 1 building its random-init
// tables) and via v2 LoadModel must produce bucket-for-bucket identical
// table sets — both paths rebuild at generation 1 — and must leave both
// networks on the same §4.2 schedule: a restore is not a scheduled
// rebuild, so training both past their second rebuild keeps tables and
// Rebuilds() equal.
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
	var v1, v2 bytes.Buffer
	if err := n.Save(&v1); err != nil {
		t.Fatal(err)
	}
	if err := n.SaveModel(&v2); err != nil {
		t.Fatal(err)
	}

	viaLoad, err := NewNetwork(cfg) // construction build consumes a generation
	if err != nil {
		t.Fatal(err)
	}
	if err := viaLoad.Load(&v1); err != nil {
		t.Fatal(err)
	}
	viaLoadModel, err := LoadModel(&v2)
	if err != nil {
		t.Fatal(err)
	}
	if !viaLoad.layers[1].Tables().Equal(viaLoadModel.layers[1].Tables()) {
		t.Fatal("v1 Load and v2 LoadModel rebuilt different tables from identical weights (generation mismatch)")
	}

	// Gaps are 8 then int(8·e^0.1) = 8: rebuilds land after batches 8 and
	// 16 on both networks, unless a restore build shifted the exponent.
	tc := TrainConfig{BatchSize: 32, Iterations: 18, Threads: 1, Seed: 3, EvalEvery: 0, SyncRebuild: true}
	for _, m := range []*Network{viaLoad, viaLoadModel} {
		if _, err := m.Train(ds.Train, ds.Test, tc); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := viaLoad.Rebuilds(), viaLoadModel.Rebuilds(); a != 2 || b != 2 {
		t.Fatalf("Rebuilds() after 18 batches: %d via Load, %d via LoadModel, want 2 scheduled rebuilds each", a, b)
	}
	if !viaLoad.layers[1].Tables().Equal(viaLoadModel.layers[1].Tables()) {
		t.Fatal("networks restored by Load and LoadModel trained to different tables (rebuild schedules diverged)")
	}
}

// TestRebuildAfterRestore: a bulk weight restore — v1 Load into a network
// whose weights and tables have drifted past the save, v2 LoadModel into a
// new one — leaves tables equal to a fresh build from the restored
// weights.
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
	var v1, v2 bytes.Buffer
	if err := n.Save(&v1); err != nil {
		t.Fatal(err)
	}
	if err := n.SaveModel(&v2); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 10, Seed: 5, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.Load(&v1); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(&v2)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Network{"Load": n, "LoadModel": m} {
		l := r.layers[1]
		if !l.Tables().Equal(naiveTables(l, r.rebuildGen)) {
			t.Fatalf("tables after %s diverged from a fresh build of the restored weights", name)
		}
	}
}

// TestRebuildSteadyStateAllocs pins the allocation budget of a
// steady-state rebuild (the CI allocation gate): once the per-layer chunk
// scratch (staged rows, code buffer) is warm, each further rebuild
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
	// Budget: the shadow Table (struct, arena, one slab, L insert RNGs)
	// for the sampled layer, plus small constant overhead. L=16 here, so
	// anything O(rows)=512 would blow far past the bound.
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
// construction, and after 30 one-thread batches with one background and
// one SyncRebuild rebuild — to fingerprints recorded at 45e72ec, the last
// commit that built them through the code-memo path: the build pipeline
// may be restructured, the tables it produces may not move. BucketSize 4
// makes every bucket overflow, so insertion order and the generation's
// reservoir stream both show. The simhash after-training value was
// re-recorded when vanilla retrieval draws became seeded per batch
// position, which moves the weights the rebuilds hash; the builds
// themselves did not change. Recorded on amd64 (see
// TestTrainingGoldenHash).
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
		{lsh.KindSimhash, 0xf1d6576da0bb6b6c, 0xa15ec626403828ce},
		{lsh.KindDWTA, 0xec96237952834d77, 0xf983fa4fc1859e75},
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
		// The schedule fires after batch 10 and again after batch 21: the
		// first call ends on the kick, so its background build is published
		// by Train's final join, never mid-run at a timing-dependent batch.
		bg, err := n.Train(ds.Train, ds.Test, TrainConfig{BatchSize: 32, Iterations: 10, Threads: 1, Seed: 9, EvalEvery: 0})
		if err != nil {
			t.Fatal(err)
		}
		inline, err := n.Train(ds.Train, ds.Test, TrainConfig{BatchSize: 32, Iterations: 20, Threads: 1, Seed: 9, EvalEvery: 0, SyncRebuild: true})
		if err != nil {
			t.Fatal(err)
		}
		if bg.Rebuilds != 1 || bg.RebuildBuildNS == 0 || inline.Rebuilds != 1 || inline.RebuildBuildNS != 0 {
			t.Fatalf("%v: want one background then one sync rebuild, got %d (build %dns) then %d (build %dns)",
				tc.hash, bg.Rebuilds, bg.RebuildBuildNS, inline.Rebuilds, inline.RebuildBuildNS)
		}
		if gotTrain := tableFingerprint(n.layers[1].Tables()); gotInit != tc.wantInit || gotTrain != tc.wantTrain {
			t.Errorf("%v: table fingerprints %#x after NewNetwork and %#x after training, want %#x and %#x",
				tc.hash, gotInit, gotTrain, tc.wantInit, tc.wantTrain)
		}
	}
}
