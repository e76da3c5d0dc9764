package dist

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/optim"
)

// captureLast is a one-shard loopback that keeps a copy of the last delta
// it was handed.
type captureLast struct{ last *core.SparseDelta }

func (c *captureLast) Exchange(_ int64, local *core.SparseDelta, stop bool) (*core.SparseDelta, bool, error) {
	c.last = local.Clone()
	return local, stop, nil
}

// BenchmarkExchangeRound times one rank's data path through a two-rank
// peer round at the benchmark's train_2shard shape (Delicious-200K at
// 0.03: 23.5K features into 128 hidden units into 6.2K classes, batch 64
// per rank), on two ranks' real records: rank 0 encodes its own, decodes
// rank 1's frame (encoded beforehand, as rank 1 does beside it),
// concatenates the two parts in rank order and folds all 128 records into
// the Adam step. Reports ns and wire bytes (written plus read) per round
// and each stage's ns; sockets are not included.
func BenchmarkExchangeRound(b *testing.B) {
	ds, err := dataset.Generate(dataset.Delicious200K(0.03, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		InputDim: ds.InputDim,
		Seed:     1,
		Adam:     optim.NewAdam(1e-3),
		Layers: []core.LayerConfig{
			{Size: 128, Activation: core.ActReLU},
			{
				Size: ds.NumClasses, Activation: core.ActSoftmax, Sampled: true, MinCount: 2,
				Hash: lsh.KindSimhash, K: 7, L: 30, Beta: ds.NumClasses / 20,
			},
		},
	}
	const batch, shards = 64, 2
	nets := make([]*core.Network, shards)
	parts := make([]*core.SparseDelta, shards)
	for rank := range nets {
		if nets[rank], err = core.NewNetwork(cfg); err != nil {
			b.Fatal(err)
		}
		// A few batches first, so the captured delta is a trained
		// network's.
		var capture captureLast
		tc := core.TrainConfig{
			BatchSize: batch, Iterations: 4, Threads: 1, Seed: 1 + uint64(rank)*rankSeedStride,
			Shards: 1, Exchanger: &capture, SkipFinalEval: true,
		}
		if _, err := nets[rank].Train(ShardExamples(ds.Train, rank, shards), nil, tc); err != nil {
			b.Fatal(err)
		}
		parts[rank] = capture.last
	}
	codec := NewCodec(nets[0])
	alpha := cfg.Adam.Alpha(nets[0].Step() + 1)
	peerFrame, err := codec.AppendDelta(nil, parts[1])
	if err != nil {
		b.Fatal(err)
	}
	var own []byte
	var peer, merged *core.SparseDelta
	var stages [4]time.Duration // encode, decode, concatenate, fold+step
	round := func() {
		t0 := time.Now()
		if own, err = codec.AppendDelta(own[:0], parts[0]); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if peer, err = codec.DecodeDelta(peer, peerFrame); err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		if merged, err = core.MergeDeltas(merged, []*core.SparseDelta{parts[0], peer}); err != nil {
			b.Fatal(err)
		}
		t3 := time.Now()
		if _, err = nets[0].ApplyDelta(merged, alpha, 1/float32(batch*shards), 1); err != nil {
			b.Fatal(err)
		}
		for i, d := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), time.Since(t3)} {
			stages[i] += d
		}
	}
	round() // warm the reused buffers
	stages = [4]time.Duration{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/round")
	b.ReportMetric(float64(len(own)+len(peerFrame)), "bytes/round")
	for i, name := range []string{"encode", "decode", "concat", "fold+step"} {
		b.ReportMetric(float64(stages[i].Nanoseconds())/float64(b.N), name+"-ns/round")
	}
}
