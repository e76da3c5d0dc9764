package dist

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
)

// shardedGoldens are FNV-64a hashes of rank 0's v2 model file (modelHash)
// after goldenConfig's run, recorded on amd64 (see core's TestTrainingGoldenHash)
// over the TCP peer round. They were re-recorded when the rounds began to
// ship records instead of folded rows: every replica now folds all ranks'
// records in one pass, so each cell's sum is one sequential pass over the
// ranks' elements instead of a sum of per-rank sums.
var shardedGoldens = []struct {
	shards  int
	overlap bool
	want    uint64
}{
	{2, false, 0x08e5b91babb1a17e},
	{2, true, 0xd86322155a7a00ac},
	{3, false, 0x5df799887b52c7e4},
	{3, true, 0x82ebc5550cf08295},
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
	if got := modelHash(t, net); got != want {
		t.Fatalf("model hash %#x, want %#x", got, want)
	}
}

// modelHash is FNV-64a of the v2 model file the goldens were recorded
// from: magic "SLIDEv2\n", the config JSON, then per layer its shape,
// neuron-major weights and biases, all little-endian. It pins the config
// and every weight bit, as the model file does; the file adds the
// tables, which are a function of them — and rank against rank
// requireTablesEqual compares those — and the zero padding that puts
// every section at a page-aligned offset.
func modelHash(t *testing.T, net *core.Network) uint64 {
	t.Helper()
	cfg := net.Config()
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	b := binary.LittleEndian.AppendUint32([]byte("SLIDEv2\n"), uint32(len(cfgJSON)))
	h.Write(append(b, cfgJSON...))
	for li := 0; li < net.NumLayers(); li++ {
		l := net.Layer(li)
		b = b[:0]
		for _, v := range []int{l.In(), l.Out(), int(cfg.Layers[li].Activation)} {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		for j := 0; j < l.Out(); j++ {
			for _, w := range l.Weights(j) {
				b = binary.LittleEndian.AppendUint32(b, math.Float32bits(w))
			}
		}
		for j := 0; j < l.Out(); j++ {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(l.Bias(j)))
		}
		h.Write(b)
	}
	return h.Sum64()
}

// TestTrainShardedGoldenHash pins in-process sharded training to the
// recorded hashes: 2 shards with and without the overlapped exchange, and
// 3 shards, where the fold's order pins the rank-order merge through
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
