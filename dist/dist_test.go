package dist_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	slide "repro"
	"repro/dataset"
	"repro/dist"
)

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Profile{
		Name: "dist-public", FeatureDim: 200, NumClasses: 96,
		TrainSize: 256, TestSize: 64,
		AvgFeatures: 16, AvgLabels: 2, ProtoNNZ: 10, NoiseFrac: 0.1, LabelSkew: 1.5, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testConfig(classes int) slide.Config {
	return slide.Config{
		InputDim: 200,
		Seed:     5,
		Layers: []slide.LayerConfig{
			{Size: 32, Activation: slide.ActReLU},
			{
				Size: classes, Activation: slide.ActSoftmax,
				Sampled: true, Hash: slide.HashSimhash, K: 4, L: 8,
				Strategy: slide.StrategyVanilla, Beta: 32,
			},
		},
	}
}

// TestTrainShardedReplicasAgree: two in-process replicas exchange their
// deltas every batch through the public API and finish with bit-identical
// weights and measured exchange bytes.
func TestTrainShardedReplicasAgree(t *testing.T) {
	ds := testData(t)
	cfg := testConfig(ds.NumClasses)
	tc := slide.TrainConfig{BatchSize: 16, Iterations: 8, Threads: 1, Seed: 2}
	res, err := dist.TrainSharded(context.Background(), cfg, ds.Train, ds.Test, tc, 2)
	if err != nil {
		t.Fatal(err)
	}
	for rank, st := range res.Stats {
		if st.Rounds != 8 || st.BytesOut == 0 {
			t.Fatalf("rank %d stats = %+v", rank, st)
		}
	}
	a, b := res.Nets[0], res.Nets[1]
	for li := 0; li < a.NumLayers(); li++ {
		la, lb := a.Layer(li), b.Layer(li)
		for j := 0; j < la.Out(); j++ {
			wa, wb := la.Weights(j), lb.Weights(j)
			for i := range wa {
				if math.Float32bits(wa[i]) != math.Float32bits(wb[i]) {
					t.Fatalf("layer %d w[%d][%d]: replicas differ (%g vs %g)", li, j, i, wa[i], wb[i])
				}
			}
		}
	}
}

// TestScheduleDigestSeparatesLaunches: replicas launched with the same
// settings agree on the digest; a different seed, batch size, iteration
// count or network config changes it, so the join handshake refuses the
// mismatched rank. OverlapExchange is deliberately not covered — it
// changes only local scheduling, so overlapped and synchronous replicas
// may share a group.
func TestScheduleDigestSeparatesLaunches(t *testing.T) {
	cfg := testConfig(96)
	tc := dist.ShardTrainConfig(slide.TrainConfig{BatchSize: 32, Iterations: 10, Seed: 1}, 256, 0, 2)
	base := dist.ScheduleDigest(cfg, tc, 1)
	t.Run("deterministic", func(t *testing.T) {
		if again := dist.ScheduleDigest(cfg, tc, 1); again != base {
			t.Fatalf("digest not deterministic: %x vs %x", base, again)
		}
	})
	t.Run("base seed", func(t *testing.T) {
		if dist.ScheduleDigest(cfg, tc, 2) == base {
			t.Error("different base seed, same digest")
		}
	})
	t.Run("batch size", func(t *testing.T) {
		batch := tc
		batch.BatchSize = 16
		if dist.ScheduleDigest(cfg, batch, 1) == base {
			t.Error("different batch size, same digest")
		}
	})
	t.Run("iterations", func(t *testing.T) {
		longer := tc
		longer.Iterations++
		if dist.ScheduleDigest(cfg, longer, 1) == base {
			t.Error("different iteration count, same digest")
		}
	})
	t.Run("network config", func(t *testing.T) {
		reseeded := cfg
		reseeded.Seed++
		if dist.ScheduleDigest(reseeded, tc, 1) == base {
			t.Error("different weight-init seed, same digest")
		}
	})
	t.Run("overlap excluded", func(t *testing.T) {
		overlapped := tc
		overlapped.OverlapExchange = true
		if dist.ScheduleDigest(cfg, overlapped, 1) != base {
			t.Error("digest covers OverlapExchange: mixed overlap groups would be refused")
		}
	})
}

// TestShardExamplesRoundRobin: rank r of n gets examples r, r+n, r+2n, …
func TestShardExamplesRoundRobin(t *testing.T) {
	ds := testData(t)
	total := 0
	for r := 0; r < 3; r++ {
		shard := dist.ShardExamples(ds.Train, r, 3)
		for i := range shard {
			if !reflect.DeepEqual(shard[i], ds.Train[r+3*i]) {
				t.Fatalf("rank %d example %d is not train[%d]", r, i, r+3*i)
			}
		}
		total += len(shard)
	}
	if total != len(ds.Train) {
		t.Fatalf("shards hold %d examples, want %d", total, len(ds.Train))
	}
}
