package core

import (
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/optim"
)

// flipForm temporarily pins the network's kernel form — the lever the
// equivalence tests below use to run the same captured state through the
// sharded and the legacy accumulation paths.
func flipForm(n *Network, f kernels.Form) (restore func()) {
	old := n.kern.Force
	n.kern.Force = f
	return func() { n.kern.Force = old }
}

// TestShardedBackwardMatchesLegacyBitwise is the tentpole's anchor: in
// ModeHogwild, a single-worker run whose gradients land in per-worker
// shards must leave weights, biases and Adam moments bit-for-bit identical
// to the same run accumulating into the shared gW buffers. Both networks
// use the gather forward form, so the only difference is where backward's
// floats land; layer 0 exercises the sparse-column shard storage (wide
// fan-in, sparse input) and layer 1 the dense arena rows (narrow fan-in,
// dense input).
func TestShardedBackwardMatchesLegacyBitwise(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	mode := optim.ModeHogwild
	t.Run(mode.String(), func(t *testing.T) {
		cfg := deltaTestConfig(classes, mode)
		cfg.Kernels = KernelGather
		sharded := mustNet(t, cfg)
		legacy := mustNet(t, cfg)
		stS := mustState(t, sharded, 99)
		stL := mustState(t, legacy, 99)

		const batchSize = 32
		for b := 0; b < 4; b++ {
			batch := ds.Train[b*batchSize : (b+1)*batchSize]
			alpha := sharded.adam.Alpha(int64(b) + 1)
			invB := float32(1.0 / batchSize)
			runManualBatch(t, sharded, stS, batch, nil)

			// Reference run: identical gather forward, legacy
			// shared-buffer backward + extraction.
			legacy.beginBatch()
			for i := range batch {
				legacy.forwardElem(stL, batch[i].Features, batch[i].Labels, modeTrain)
				restore := flipForm(legacy, kernels.FormLegacy)
				legacy.backwardElem(stL, batch[i].Features, batch[i].Labels, nil)
				restore()
			}

			sharded.applyAdamBatch(alpha, invB, 3)
			restore := flipForm(legacy, kernels.FormLegacy)
			legacy.applyAdamBatch(alpha, invB, 3)
			restore()
		}
		requireNetsBitIdentical(t, sharded, legacy, "sharded vs legacy backward")
		if sharded.touchedWeights != legacy.touchedWeights {
			t.Fatalf("touchedWeights: sharded %d != legacy %d", sharded.touchedWeights, legacy.touchedWeights)
		}
		if sharded.touchedWeights == 0 {
			t.Fatal("no gradient cells were applied; test is vacuous")
		}
	})
}

// TestBatchSyncShardedMatchesLegacyReplay: the id-sharded BatchSync replay
// into backShards must extract the bit-identical SparseDelta to the legacy
// shared-buffer replay of the same captured records.
func TestBatchSyncShardedMatchesLegacyReplay(t *testing.T) {
	const classes = 96
	ds := deltaTestDataset(t, classes)
	cfg := deltaTestConfig(classes, optim.ModeBatchSync)
	cfg.Kernels = KernelGather
	n := mustNet(t, cfg)
	st := mustState(t, n, 42)

	const batchSize = 24
	batch := ds.Train[:batchSize]
	records := make([]*elemRecord, batchSize)
	for i := range records {
		records[i] = &elemRecord{}
	}
	n.beginBatch()
	for i := range batch {
		n.forwardElem(st, batch[i].Features, batch[i].Labels, modeTrain)
		n.backwardElem(st, batch[i].Features, batch[i].Labels, records[i])
	}

	n.accumulateBatchSync(records, 3)
	fromShards := n.ExtractDelta(nil, 2).Clone()

	// Replay the same records through the legacy path. The shards were
	// consumed by the extraction above, and the legacy replay writes gW,
	// so the second extraction reads exclusively legacy state.
	restore := flipForm(n, kernels.FormLegacy)
	n.accumulateBatchSync(records, 3)
	fromBuffers := n.ExtractDelta(nil, 2).Clone()
	restore()

	if !reflect.DeepEqual(fromShards, fromBuffers) {
		t.Fatal("sharded BatchSync replay extracted a different delta than the legacy replay")
	}
	if fromShards.Cells() == 0 {
		t.Fatal("empty delta; test is vacuous")
	}
}

// TestBatchSyncShardedThreadCountInvariant: with id-sharded replay each
// neuron row lives in exactly one shard and sees the records in record
// order, so the extracted delta must be bit-identical for any worker
// count.
func TestBatchSyncShardedThreadCountInvariant(t *testing.T) {
	const classes = 96
	ds := deltaTestDataset(t, classes)
	baseCfg := deltaTestConfig(classes, optim.ModeBatchSync)

	extractWith := func(workers int) *SparseDelta {
		n := mustNet(t, baseCfg)
		st := mustState(t, n, 42)
		const batchSize = 24
		batch := ds.Train[:batchSize]
		records := make([]*elemRecord, batchSize)
		for i := range records {
			records[i] = &elemRecord{}
		}
		n.beginBatch()
		for i := range batch {
			n.forwardElem(st, batch[i].Features, batch[i].Labels, modeTrain)
			n.backwardElem(st, batch[i].Features, batch[i].Labels, records[i])
		}
		n.accumulateBatchSync(records, workers)
		return n.ExtractDelta(nil, 2).Clone()
	}

	ref := extractWith(1)
	if ref.Cells() == 0 {
		t.Fatal("empty delta; test is vacuous")
	}
	for _, workers := range []int{2, 3, 7} {
		if got := extractWith(workers); !reflect.DeepEqual(ref, got) {
			t.Fatalf("BatchSync delta with %d workers differs from 1 worker", workers)
		}
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
