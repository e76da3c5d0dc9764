package dist

import (
	"testing"

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

// BenchmarkExchangeRound times one two-rank exchange round's data path at
// the benchmark's train_2shard shape (Delicious-200K at 0.03: 23.5K
// features into 128 hidden units into 6.2K classes, batch 64 per rank), on
// two ranks' real deltas: rank 1 encodes its delta, the hub decodes it,
// merges it with its own, encodes the merged delta, rank 1 decodes that
// and applies it. Reports ns and wire bytes per round; sockets and the
// barrier are not included.
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
	var up, down []byte
	var peer, merged, got *core.SparseDelta
	round := func() {
		if up, err = codec.AppendDelta(up[:0], parts[1]); err != nil {
			b.Fatal(err)
		}
		if peer, err = codec.DecodeDelta(peer, up); err != nil {
			b.Fatal(err)
		}
		if merged, err = core.MergeDeltas(merged, []*core.SparseDelta{parts[0], peer}); err != nil {
			b.Fatal(err)
		}
		if down, err = codec.AppendDelta(down[:0], merged); err != nil {
			b.Fatal(err)
		}
		if got, err = codec.DecodeDelta(got, down); err != nil {
			b.Fatal(err)
		}
		if _, err = nets[1].ApplyDelta(got, alpha, 1/float32(batch*shards), 1); err != nil {
			b.Fatal(err)
		}
	}
	round() // warm the reused buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/round")
	b.ReportMetric(float64(len(up)+len(down)), "bytes/round")
	b.ReportMetric(float64(parts[1].Cells()+merged.Cells()), "cells/round")
}
