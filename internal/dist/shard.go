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
// training results, and each rank's measured socket bytes.
type ShardedResult struct {
	Nets    []*core.Network
	Results []*core.TrainResult
	Stats   []ExchangeStats
}

// rankExchanger is what both TCP ranks offer beyond core.DeltaExchanger.
type rankExchanger interface {
	core.DeltaExchanger
	Stats() ExchangeStats
	Close() error
}

// TrainSharded runs data-parallel SLIDE training with N in-process
// replicas (§6): every replica builds an identical network from cfg (same
// seed), trains on its round-robin shard of train, and merges all shards'
// SparseDeltas at every batch boundary before the Adam step averaged over
// BatchSize*Shards examples. The replicas exchange over loopback TCP,
// wired as N slide-train -dist processes are — rank 0 listens, the others
// dial in — so in-process and multi-process groups run the same peer
// round and train the same bits. On success all replicas hold
// bit-identical weights, so Nets[0] is the trained model.
//
// The per-replica batch size and iteration count are derived once from
// the smallest shard (ShardTrainConfig), so every replica runs the same
// schedule; tc.Threads of 0 selects GOMAXPROCS divided across the
// replicas. A replica that fails closes its exchanger, so its peers fail
// at their next exchange instead of waiting on it; the first failure is
// returned.
func TrainSharded(ctx context.Context, cfg core.Config, train, test []dataset.Example, tc core.TrainConfig, shards int) (*ShardedResult, error) {
	if shards < 2 {
		return nil, fmt.Errorf("dist: sharded training needs at least 2 shards, got %d", shards)
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
	// The thread budget — explicit or GOMAXPROCS — is split across the
	// in-process replicas (as the slide-train -threads flag documents):
	// every replica training concurrently with the full budget would
	// oversubscribe the machine shards-fold.
	threads := tc.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	tcs := make([]core.TrainConfig, shards)
	for r := range tcs {
		tcs[r] = ShardTrainConfig(tc, len(train), r, shards)
		tcs[r].Threads = max(1, threads/shards)
	}

	digest := ScheduleDigest(cfg, tcs[0], tc.Seed)
	srv, err := ListenExchanger("127.0.0.1:0", shards, NewCodec(nets[0]), digest)
	if err != nil {
		return nil, err
	}
	exs := []rankExchanger{srv}
	defer func() {
		for _, ex := range exs {
			ex.Close()
		}
	}()
	for r := 1; r < shards; r++ {
		cli, err := DialExchanger(srv.Addr().String(), r, shards, NewCodec(nets[r]), digest)
		if err != nil {
			return nil, err
		}
		exs = append(exs, cli)
	}

	results := make([]*core.TrainResult, shards)
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for r := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tcs[r].Exchanger = exs[r]
			res, err := nets[r].TrainContext(ctx, ShardExamples(train, r, shards), test, tcs[r])
			results[r] = res
			if err != nil {
				// Peers fail only once this exchanger is closed, so the
				// first failure recorded is the cause.
				mu.Lock()
				if first == nil {
					first = fmt.Errorf("dist: replica %d: %w", r, err)
				}
				mu.Unlock()
				exs[r].Close()
			}
		}()
	}
	wg.Wait()

	out := &ShardedResult{Nets: nets, Results: results, Stats: make([]ExchangeStats, shards)}
	for r, ex := range exs {
		out.Stats[r] = ex.Stats()
	}
	return out, first
}
