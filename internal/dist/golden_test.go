package dist

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/core"
)

// shardedGoldens are FNV-64a hashes of rank 0's SaveModel after
// goldenConfig's run, recorded on amd64 (see core's TestTrainingGoldenHash)
// over the in-process barrier that TrainSharded ran before it moved onto
// the TCP peer round: the transport may not move a bit.
var shardedGoldens = []struct {
	shards  int
	overlap bool
	want    uint64
}{
	{2, false, 0xd567ca4e1a8e5723},
	{2, true, 0x9afb3a2af98cad55},
	{3, false, 0x9feafe46ac77731c},
	{3, true, 0x00ed669ff0de5e43},
}

const goldenClasses, goldenIters = 128, 12

// goldenConfig returns the golden runs' network: table rebuilds are due
// (kicked after batches 4, 8 and 12), and each publishes at the same step
// on every rank however long its build takes there. The runs train
// batches of 16 per rank with group seed 3, as trainWithExchanger does.
func goldenConfig() core.Config {
	cfg := distConfig(goldenClasses)
	cfg.RebuildN0 = 4
	return cfg
}

// requireGolden checks net's model hash against the recorded one, on the
// architecture it was recorded on.
func requireGolden(t *testing.T, net *core.Network, want uint64) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	h := fnv.New64a()
	if err := net.SaveModel(h); err != nil {
		t.Fatal(err)
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("model hash %#x, want %#x", got, want)
	}
}

// TestTrainShardedGoldenHash pins in-process sharded training to the
// recorded hashes: 2 shards with and without the overlapped exchange, and
// 3 shards, where three-part float sums pin the rank-order merge through
// rank 0's relaying. The thread budget may not move the bits: each case
// runs at one and at two threads per rank, and every replica ends with
// rank 0's weights and tables.
func TestTrainShardedGoldenHash(t *testing.T) {
	ds := distDataset(t, goldenClasses, 512)
	for _, g := range shardedGoldens {
		for _, perRank := range []int{1, 2} {
			t.Run(fmt.Sprintf("shards=%d/overlap=%v/threads=%d", g.shards, g.overlap, g.shards*perRank), func(t *testing.T) {
				tc := core.TrainConfig{
					BatchSize: 16, Iterations: goldenIters, Threads: g.shards * perRank, Seed: 3,
					OverlapExchange: g.overlap,
				}
				res, err := TrainSharded(context.Background(), goldenConfig(), ds.Train, ds.Test, tc, g.shards)
				if err != nil {
					t.Fatal(err)
				}
				if res.Results[0].Rebuilds != 3 {
					t.Fatalf("published %d rebuilds, want 3", res.Results[0].Rebuilds)
				}
				for rank := 1; rank < g.shards; rank++ {
					requireNetsBitIdentical(t, res.Nets[0], res.Nets[rank], fmt.Sprintf("rank 0 vs rank %d", rank))
					requireTablesEqual(t, res.Nets[0], res.Nets[rank], fmt.Sprintf("rank 0 vs rank %d", rank))
				}
				requireGolden(t, res.Nets[0], g.want)
			})
		}
	}
}
