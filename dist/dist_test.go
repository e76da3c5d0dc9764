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
				Strategy: slide.StrategyTopK, Beta: 32,
			},
		},
	}
}

// TestTrainShardedCompression: for every -compress setting, two
// in-process replicas exchange the setting's wire format and finish with
// bit-identical weights.
func TestTrainShardedCompression(t *testing.T) {
	ds := testData(t)
	for _, spec := range []string{"fp32", "bf16", "topk:0.25"} {
		t.Run(spec, func(t *testing.T) {
			c, frac, err := slide.ParseCompression(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(ds.NumClasses)
			tc := slide.TrainConfig{BatchSize: 16, Iterations: 8, Threads: 1, Seed: 2, Compress: c, TopKFrac: frac}
			res, err := dist.TrainSharded(context.Background(), cfg, ds.Train, ds.Test, tc, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got := dist.NewCodecFormat(res.Nets[0], dist.FormatFor(c)).Format().String(); got != c.String() {
				t.Fatalf("wire format %s for compression %s", got, c)
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
		})
	}
}

// TestScheduleDigestSeparatesLaunches: replicas launched with the same
// settings agree on the digest; a different seed or compression setting
// changes it, so the join handshake refuses the mismatched rank.
func TestScheduleDigestSeparatesLaunches(t *testing.T) {
	cfg := testConfig(96)
	tc := dist.ShardTrainConfig(slide.TrainConfig{BatchSize: 32, Iterations: 10, Seed: 1}, 256, 0, 2)
	base := dist.ScheduleDigest(cfg, tc, 1)
	if again := dist.ScheduleDigest(cfg, tc, 1); again != base {
		t.Fatalf("digest not deterministic: %x vs %x", base, again)
	}
	if dist.ScheduleDigest(cfg, tc, 2) == base {
		t.Error("different base seed, same digest")
	}
	bf16 := tc
	bf16.Compress = slide.CompressBF16
	if dist.ScheduleDigest(cfg, bf16, 1) == base {
		t.Error("different compression, same digest")
	}
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
