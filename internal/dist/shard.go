package dist

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
)

// rankSeedStride separates the replicas' shuffle/sampling seed spaces so
// shards draw independent element orders and fallback streams (the
// replicas' weights stay in lockstep regardless — every replica applies
// the same merged delta).
const rankSeedStride = 0x9e3779b97f4a7c15

// ShardExamples returns rank's round-robin data shard: examples rank,
// rank+shards, rank+2*shards, ... Round-robin keeps the shards' label
// distributions aligned, which contiguous splits of a skewed dataset
// would not.
func ShardExamples(xs []dataset.Example, rank, shards int) []dataset.Example {
	if shards <= 1 {
		return xs
	}
	out := make([]dataset.Example, 0, (len(xs)+shards-1-rank)/shards)
	for i := rank; i < len(xs); i += shards {
		out = append(out, xs[i])
	}
	return out
}

// ShardTrainConfig derives rank's per-replica TrainConfig from the
// group-wide tc. Every rank must run the identical batch size and
// iteration count — a rank on its own schedule would fall out of step
// with the exchange barrier — so both are fixed from the smallest
// round-robin shard; both TrainSharded and the multi-process
// slide-train ranks derive their schedules here. Non-zero ranks get
// rank-striped shuffle seeds, drop the OnEval callback (one replica
// narrates; weights are shared anyway), and skip periodic evaluation
// unless a TargetAcc stop needs it (any rank may trigger the
// coordinated stop). The caller sets Exchanger and Threads.
func ShardTrainConfig(tc core.TrainConfig, trainLen, rank, shards int) core.TrainConfig {
	minLen := trainLen / shards // the smallest round-robin shard
	if minLen < 1 {
		// Degenerate split (fewer examples than shards): keep the
		// schedule arithmetic valid; the empty shard itself will fail
		// training with a real error.
		minLen = 1
	}
	if tc.BatchSize <= 0 {
		tc.BatchSize = 128
	}
	tc.BatchSize = min(tc.BatchSize, minLen)
	if tc.Iterations == 0 {
		epochs := max(tc.Epochs, 1)
		tc.Iterations = int64(epochs) * int64((minLen+tc.BatchSize-1)/tc.BatchSize)
	}
	tc.Epochs = 0
	tc.Shards = shards
	tc.Seed += uint64(rank) * rankSeedStride
	if rank != 0 {
		tc.OnEval = nil
		tc.SkipFinalEval = true // weights are rank 0's, bit for bit
		if tc.TargetAcc == 0 {
			tc.EvalEvery = 0
		}
	}
	return tc
}

// ShardedResult bundles an in-process sharded run's outcome: every
// replica's network (bit-identical weights on success), the per-replica
// training results, and the per-rank measured exchange bytes.
type ShardedResult struct {
	Nets    []*core.Network
	Results []*core.TrainResult
	Stats   []ExchangeStats
}

// TrainSharded runs data-parallel SLIDE training with N in-process
// replicas over an all-reduce Mesh (§6): every replica builds an
// identical network from cfg (same seed), trains on its round-robin
// shard of train, and merges all shards' SparseDeltas at every batch
// boundary before the Adam step averaged over BatchSize*Shards examples.
// On success all replicas hold bit-identical weights — the merged delta
// is shared — so Nets[0] is the trained model.
//
// The per-replica batch size and iteration count are derived once from
// the smallest shard so every replica runs the same schedule (a replica
// that fell out of step would deadlock the barrier); tc.Threads of 0
// selects GOMAXPROCS divided across the replicas. shards == 1 is the
// loopback measurement configuration: training is bit-identical to a
// plain net.Train run, with every batch's encoded delta size measured.
func TrainSharded(ctx context.Context, cfg core.Config, train, test []dataset.Example, tc core.TrainConfig, shards int) (*ShardedResult, error) {
	if shards < 1 {
		return nil, fmt.Errorf("dist: shards must be >= 1, got %d", shards)
	}
	if len(train) < shards {
		return nil, fmt.Errorf("dist: %d examples cannot feed %d shards", len(train), shards)
	}

	nets := make([]*core.Network, shards)
	for r := range nets {
		net, err := core.NewNetwork(cfg)
		if err != nil {
			return nil, err
		}
		nets[r] = net
	}
	// The mesh prices every delta with the wire codec, so in-process
	// groups measure the bytes a TCP group would ship.
	mesh := NewMesh(shards, NewCodec(nets[0]))

	data := make([][]dataset.Example, shards)
	for r := range data {
		data[r] = ShardExamples(train, r, shards)
	}
	// The thread budget — explicit or GOMAXPROCS — is split across the
	// in-process replicas (as the slide-train -threads flag documents):
	// every replica training concurrently with the full budget would
	// oversubscribe the machine shards-fold.
	threads := tc.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	threads = max(1, threads/shards)

	results := make([]*core.TrainResult, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for r := 0; r < shards; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rtc := ShardTrainConfig(tc, len(train), r, shards)
			rtc.Threads = threads
			rtc.Exchanger = mesh.Rank(r)
			res, err := nets[r].TrainContext(ctx, data[r], test, rtc)
			results[r] = res
			if err != nil {
				errs[r] = err
				mesh.Fail(fmt.Errorf("dist: replica %d: %w", r, err))
			}
		}(r)
	}
	wg.Wait()

	out := &ShardedResult{Nets: nets, Results: results, Stats: mesh.Stats()}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
