package dist

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/optim"
	"repro/internal/sampling"
)

const testFeatureDim = 600 // above colTrackThreshold: first layer tracks columns

// multiThreadMode returns the update mode for tests that train with
// multiple worker threads per replica: HOGWILD's races (including the
// benign touched/colStamp stamps) are deliberate and would trip the race
// detector, so -race runs use the sharded-writer batch-sync discipline —
// the same convention internal/core's race-gated tests follow.
func multiThreadMode() optim.UpdateMode {
	if raceEnabled {
		return optim.ModeBatchSync
	}
	return optim.ModeHogwild
}

func distDataset(t testing.TB, classes, trainSize int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Profile{
		Name:        "dist-test",
		FeatureDim:  testFeatureDim,
		NumClasses:  classes,
		TrainSize:   trainSize,
		TestSize:    trainSize / 4,
		AvgFeatures: 20,
		AvgLabels:   2,
		ProtoNNZ:    12,
		NoiseFrac:   0.1,
		LabelSkew:   1.5,
		Seed:        7,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds
}

func distConfig(classes int, mode optim.UpdateMode) core.Config {
	return core.Config{
		InputDim:   testFeatureDim,
		Seed:       11,
		UpdateMode: mode,
		Layers: []core.LayerConfig{
			{Size: 64, Activation: core.ActReLU},
			{
				Size: classes, Activation: core.ActSoftmax,
				Sampled: true, Hash: lsh.KindSimhash, K: 5, L: 16,
				Strategy: sampling.KindTopK, Beta: 48,
			},
		},
	}
}

// requireNetsBitIdentical compares two networks' weights and biases bit
// for bit through the public layer accessors.
func requireNetsBitIdentical(t *testing.T, a, b *core.Network, context string) {
	t.Helper()
	if a.NumLayers() != b.NumLayers() {
		t.Fatalf("%s: layer counts differ", context)
	}
	for li := 0; li < a.NumLayers(); li++ {
		la, lb := a.Layer(li), b.Layer(li)
		for j := 0; j < la.Out(); j++ {
			wa, wb := la.Weights(j), lb.Weights(j)
			for i := range wa {
				if math.Float32bits(wa[i]) != math.Float32bits(wb[i]) {
					t.Fatalf("%s: layer %d w[%d][%d]: %g != %g", context, li, j, i, wa[i], wb[i])
				}
			}
			if math.Float32bits(la.Bias(j)) != math.Float32bits(lb.Bias(j)) {
				t.Fatalf("%s: layer %d bias[%d]: %g != %g", context, li, j, la.Bias(j), lb.Bias(j))
			}
		}
	}
}

// TestShardExamples: round-robin partition covers every example exactly
// once and balances sizes within one.
func TestShardExamples(t *testing.T) {
	ds := distDataset(t, 64, 103)
	seen := make(map[int]int)
	sizes := make([]int, 3)
	for r := 0; r < 3; r++ {
		shard := ShardExamples(ds.Train, r, 3)
		sizes[r] = len(shard)
		for i := r; i < len(ds.Train); i += 3 {
			seen[i]++
		}
	}
	if len(seen) != len(ds.Train) {
		t.Fatalf("shards cover %d of %d examples", len(seen), len(ds.Train))
	}
	if sizes[0]+sizes[1]+sizes[2] != len(ds.Train) {
		t.Fatalf("shard sizes %v do not sum to %d", sizes, len(ds.Train))
	}
	if sizes[0]-sizes[2] > 1 {
		t.Fatalf("shard sizes %v unbalanced", sizes)
	}
	if got := ShardExamples(ds.Train, 0, 1); len(got) != len(ds.Train) {
		t.Fatalf("1-shard split returned %d examples", len(got))
	}
}

// TestMeshAllReduce: N ranks exchanging concurrently all receive the same
// merged delta — the rank-ordered cell-wise sum — with stop propagation
// and byte accounting.
func TestMeshAllReduce(t *testing.T) {
	dims := [][2]int32{{32, 64}}
	codec := testCodec(dims...)
	const shards = 3
	mesh := NewMesh(shards, codec)
	locals := make([]*core.SparseDelta, shards)
	for i := range locals {
		locals[i] = randomDelta(rand.New(rand.NewSource(int64(i)+20)), dims)
	}

	const rounds = 5
	type got struct {
		merged  [rounds]uint64 // fnv of encoded merged per round
		stopAll [rounds]bool
	}
	results := make([]got, shards)
	var wg sync.WaitGroup
	for rank := 0; rank < shards; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ex := mesh.Rank(rank)
			for round := 0; round < rounds; round++ {
				stop := round == rounds-1 && rank == 1 // one rank requests a stop last round
				merged, stopAll, err := ex.Exchange(int64(round), locals[rank], stop)
				if err != nil {
					t.Errorf("rank %d round %d: %v", rank, round, err)
					return
				}
				buf, err := codec.AppendDelta(nil, merged)
				if err != nil {
					t.Errorf("rank %d round %d: encode merged: %v", rank, round, err)
					return
				}
				h := fnv.New64a()
				h.Write(buf)
				results[rank].merged[round] = h.Sum64()
				results[rank].stopAll[round] = stopAll
			}
		}(rank)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for rank := 1; rank < shards; rank++ {
		for round := 0; round < rounds; round++ {
			if results[rank].merged[round] != results[0].merged[round] {
				t.Fatalf("rank %d round %d merged differs from rank 0", rank, round)
			}
			if results[rank].stopAll[round] != (round == rounds-1) {
				t.Fatalf("rank %d round %d stopAll = %v", rank, round, results[rank].stopAll[round])
			}
		}
	}

	// A 1-shard mesh passes the local delta straight through.
	mesh2 := NewMesh(1, codec)
	solo, _, err := mesh2.Rank(0).Exchange(0, locals[0], false)
	if err != nil || solo != locals[0] {
		t.Fatalf("1-shard mesh must pass the local delta through, got %p (%v)", solo, err)
	}

	for rank, st := range mesh.Stats() {
		if st.Rounds != rounds {
			t.Fatalf("rank %d rounds = %d, want %d", rank, st.Rounds, rounds)
		}
		wantOut := int64(rounds * codec.EncodedSize(locals[rank]))
		if st.BytesOut != wantOut {
			t.Fatalf("rank %d BytesOut = %d, want %d", rank, st.BytesOut, wantOut)
		}
		if st.BytesIn <= 0 {
			t.Fatalf("rank %d BytesIn = %d", rank, st.BytesIn)
		}
	}
}

// TestMeshFailUnblocks: poisoning the mesh releases a rank blocked on the
// barrier with the failure error.
func TestMeshFailUnblocks(t *testing.T) {
	dims := [][2]int32{{8, 8}}
	mesh := NewMesh(2, testCodec(dims...))
	local := randomDelta(rand.New(rand.NewSource(1)), dims)
	errc := make(chan error, 1)
	go func() {
		_, _, err := mesh.Rank(0).Exchange(0, local, false)
		errc <- err
	}()
	boom := errors.New("replica died")
	mesh.Fail(boom)
	if err := <-errc; !errors.Is(err, boom) {
		t.Fatalf("blocked rank returned %v, want %v", err, boom)
	}
	if _, _, err := mesh.Rank(1).Exchange(0, local, false); !errors.Is(err, boom) {
		t.Fatalf("later exchange returned %v, want %v", err, boom)
	}
}

// TestTrainShardedLoopbackMatchesPlain: the shards=1 configuration is a
// pure measurement tap — training is bit-identical to net.Train while
// every batch's encoded payload is priced.
func TestTrainShardedLoopbackMatchesPlain(t *testing.T) {
	const classes = 128
	ds := distDataset(t, classes, 512)
	cfg := distConfig(classes, optim.ModeBatchSync)
	tc := core.TrainConfig{BatchSize: 32, Iterations: 15, Threads: 1, EvalEvery: 0, Seed: 9}

	plain, err := core.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Train(ds.Train, ds.Test, tc); err != nil {
		t.Fatal(err)
	}
	res, err := TrainSharded(context.Background(), cfg, ds.Train, ds.Test, tc, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireNetsBitIdentical(t, plain, res.Nets[0], "loopback vs plain")
	st := res.Stats[0]
	if st.Rounds != 15 || st.BytesOut == 0 || st.BytesOut != st.BytesIn {
		t.Fatalf("loopback stats = %+v", st)
	}
	if res.Results[0].TouchedPerIter <= 0 {
		t.Fatal("TouchedPerIter not accounted")
	}
	// The measured codec payload must undercut the historical 8 B/cell
	// index+value estimate.
	estimate := res.Results[0].TouchedPerIter * 8
	if measured := st.BytesOutPerRound(); measured > estimate {
		t.Fatalf("measured %0.f B/iter above the 8 B/cell estimate %0.f", measured, estimate)
	}
}

// TestTrainShardedReplicasInLockstep is the data-parallel core guarantee:
// every replica applies the same merged delta, so after any number of
// batches all replicas hold bit-identical weights.
func TestTrainShardedReplicasInLockstep(t *testing.T) {
	const classes = 128
	ds := distDataset(t, classes, 512)
	cfg := distConfig(classes, multiThreadMode())
	tc := core.TrainConfig{BatchSize: 16, Iterations: 25, Threads: 2, EvalEvery: 10, Seed: 3}

	res, err := TrainSharded(context.Background(), cfg, ds.Train, ds.Test, tc, 3)
	if err != nil {
		t.Fatal(err)
	}
	requireNetsBitIdentical(t, res.Nets[0], res.Nets[1], "replica 0 vs 1")
	requireNetsBitIdentical(t, res.Nets[0], res.Nets[2], "replica 0 vs 2")
	for rank, st := range res.Stats {
		if st.Rounds != 25 {
			t.Fatalf("rank %d exchanged %d rounds, want 25", rank, st.Rounds)
		}
	}
	for rank, r := range res.Results {
		if r.Iterations != 25 {
			t.Fatalf("rank %d ran %d iterations, want 25", rank, r.Iterations)
		}
	}
}

// TestTrainShardedLockstepCompressed sweeps the compression × overlap
// matrix through 3-shard in-process training: whatever rides the wire —
// bf16-rounded values, top-k selections with per-rank error feedback —
// and however the exchange is scheduled, every replica must end with
// bit-identical weights (the merged delta each rank applies is shared).
func TestTrainShardedLockstepCompressed(t *testing.T) {
	const classes = 128
	ds := distDataset(t, classes, 512)
	variants := []struct {
		name   string
		mutate func(*core.TrainConfig)
	}{
		{"fp32-overlap", func(tc *core.TrainConfig) { tc.OverlapExchange = true }},
		{"bf16", func(tc *core.TrainConfig) { tc.Compress = core.CompressBF16 }},
		{"bf16-overlap", func(tc *core.TrainConfig) {
			tc.Compress = core.CompressBF16
			tc.OverlapExchange = true
		}},
		{"topk", func(tc *core.TrainConfig) {
			tc.Compress = core.CompressTopK
			tc.TopKFrac = 0.25
		}},
		{"topk-overlap", func(tc *core.TrainConfig) {
			tc.Compress = core.CompressTopK
			tc.TopKFrac = 0.25
			tc.OverlapExchange = true
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := distConfig(classes, multiThreadMode())
			tc := core.TrainConfig{BatchSize: 16, Iterations: 20, Threads: 2, EvalEvery: 8, Seed: 3}
			v.mutate(&tc)
			res, err := TrainSharded(context.Background(), cfg, ds.Train, ds.Test, tc, 3)
			if err != nil {
				t.Fatal(err)
			}
			requireNetsBitIdentical(t, res.Nets[0], res.Nets[1], "replica 0 vs 1")
			requireNetsBitIdentical(t, res.Nets[0], res.Nets[2], "replica 0 vs 2")
			for rank, st := range res.Stats {
				if st.Rounds != 20 {
					t.Fatalf("rank %d exchanged %d rounds, want 20", rank, st.Rounds)
				}
			}
			if tc.OverlapExchange {
				r0 := res.Results[0]
				if r0.ExchangeNS < 0 || r0.ExchangeHiddenNS < 0 {
					t.Fatalf("negative exchange split: blocked %d hidden %d", r0.ExchangeNS, r0.ExchangeHiddenNS)
				}
			}
		})
	}
}

// TestCompressionShrinksMeasuredBytes: on a real training workload the
// bf16 wire format must ship fewer measured bytes than fp32, and topk at
// a small fraction must undercut both by a large factor (the ≥4x §6
// operating-point target lives in the benchmark; here we pin direction
// and a conservative 2x for a short run).
func TestCompressionShrinksMeasuredBytes(t *testing.T) {
	const classes = 128
	ds := distDataset(t, classes, 512)
	perIter := func(mutate func(*core.TrainConfig)) float64 {
		cfg := distConfig(classes, optim.ModeBatchSync)
		tc := core.TrainConfig{BatchSize: 32, Iterations: 12, Threads: 1, EvalEvery: 0, Seed: 9}
		if mutate != nil {
			mutate(&tc)
		}
		res, err := TrainSharded(context.Background(), cfg, ds.Train, ds.Test, tc, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats[0].BytesOutPerRound()
	}
	fp32 := perIter(nil)
	bf16 := perIter(func(tc *core.TrainConfig) { tc.Compress = core.CompressBF16 })
	topk := perIter(func(tc *core.TrainConfig) {
		tc.Compress = core.CompressTopK
		tc.TopKFrac = 0.1
	})
	t.Logf("measured bytes/iter: fp32 %.0f, bf16 %.0f, topk:0.1 %.0f", fp32, bf16, topk)
	if bf16 >= fp32 {
		t.Fatalf("bf16 %.0f B/iter does not undercut fp32 %.0f", bf16, fp32)
	}
	if topk >= fp32/2 {
		t.Fatalf("topk:0.1 %.0f B/iter is not ≥2x below fp32 %.0f", topk, fp32)
	}
}

// TestTrainShardedCoordinatedStop: a TargetAcc stop on one replica (their
// eval subsets differ, so one replica can cross the target alone) halts
// every replica at the same step via the exchanged stop flag.
func TestTrainShardedCoordinatedStop(t *testing.T) {
	const classes = 128
	ds := distDataset(t, classes, 512)
	cfg := distConfig(classes, optim.ModeHogwild)
	// TargetAcc 0 is "never"; an absurdly low positive target trips at
	// the first eval on whichever replica evaluates first.
	tc := core.TrainConfig{
		BatchSize: 16, Iterations: 200, Threads: 1, EvalEvery: 5,
		TargetAcc: 1e-9, Seed: 3,
	}
	res, err := TrainSharded(context.Background(), cfg, ds.Train, ds.Test, tc, 2)
	if err != nil {
		t.Fatal(err)
	}
	it0, it1 := res.Results[0].Iterations, res.Results[1].Iterations
	if it0 != it1 {
		t.Fatalf("replicas stopped at different steps: %d vs %d", it0, it1)
	}
	if it0 >= 200 {
		t.Fatalf("coordinated stop never fired (%d iterations)", it0)
	}
	requireNetsBitIdentical(t, res.Nets[0], res.Nets[1], "after coordinated stop")
}

// TestTrainShardedCancellation: context cancellation is coordinated like
// any other stop — all replicas drain within one extra batch and report
// the cancellation.
func TestTrainShardedCancellation(t *testing.T) {
	const classes = 128
	ds := distDataset(t, classes, 512)
	cfg := distConfig(classes, optim.ModeHogwild)
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	tc := core.TrainConfig{
		BatchSize: 16, Iterations: 10000, Threads: 1, EvalEvery: 3, Seed: 3,
		OnEval: func(core.Point) {
			if evals++; evals == 2 {
				cancel()
			}
		},
	}
	res, err := TrainSharded(ctx, cfg, ds.Train, ds.Test, tc, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Results[0] == nil || res.Results[1] == nil {
		t.Fatal("cancelled run must still return partial results")
	}
	if it := res.Results[0].Iterations; it >= 10000 || it == 0 {
		t.Fatalf("rank 0 ran %d iterations", it)
	}
	if res.Results[0].Iterations != res.Results[1].Iterations {
		t.Fatalf("replicas drained at different steps: %d vs %d",
			res.Results[0].Iterations, res.Results[1].Iterations)
	}
	requireNetsBitIdentical(t, res.Nets[0], res.Nets[1], "after cancellation")
}

// trainWithExchanger drives one replica exactly as TrainSharded does,
// against an arbitrary exchanger — used to run the TCP transport through
// real training.
func trainWithExchanger(t *testing.T, net *core.Network, ex core.DeltaExchanger,
	shard, test []dataset.Example, rank, shards int, iters int64, mutate func(*core.TrainConfig)) *core.TrainResult {
	t.Helper()
	tc := core.TrainConfig{
		BatchSize: 16, Iterations: iters, Threads: 1, EvalEvery: 0,
		Seed:      3 + uint64(rank)*rankSeedStride,
		Shards:    shards,
		Exchanger: ex,
	}
	if mutate != nil {
		mutate(&tc)
	}
	res, err := net.TrainContext(context.Background(), shard, test, tc)
	if err != nil {
		t.Errorf("rank %d: %v", rank, err)
	}
	return res
}

// TestTCPShardedTrainingMatchesMesh trains the same 2-shard workload over
// the in-process mesh and over the TCP hub transport on localhost: the
// codec and framing must be lossless — and, for bf16, the mesh's in-place
// quantization must equal the wire's encode/decode rounding exactly — so
// the final weights agree bit for bit whatever the negotiated compression
// or overlap setting, and both transports leave all replicas in lockstep.
func TestTCPShardedTrainingMatchesMesh(t *testing.T) {
	const classes = 128
	const iters = 12
	ds := distDataset(t, classes, 512)

	variants := []struct {
		name   string
		mutate func(*core.TrainConfig)
	}{
		{"fp32", nil},
		{"bf16", func(tc *core.TrainConfig) { tc.Compress = core.CompressBF16 }},
		{"topk", func(tc *core.TrainConfig) {
			tc.Compress = core.CompressTopK
			tc.TopKFrac = 0.25
		}},
		{"bf16-overlap", func(tc *core.TrainConfig) {
			tc.Compress = core.CompressBF16
			tc.OverlapExchange = true
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := distConfig(classes, optim.ModeHogwild)

			// Mesh reference run, seeds matching trainWithExchanger.
			tc := core.TrainConfig{BatchSize: 16, Iterations: iters, Threads: 1, EvalEvery: 0, Seed: 3}
			if v.mutate != nil {
				v.mutate(&tc)
			}
			meshRes, err := TrainSharded(context.Background(), cfg, ds.Train, ds.Test, tc, 2)
			if err != nil {
				t.Fatal(err)
			}

			// TCP run: rank 0 serves, rank 1 dials, both train concurrently.
			nets := make([]*core.Network, 2)
			for r := range nets {
				if nets[r], err = core.NewNetwork(cfg); err != nil {
					t.Fatal(err)
				}
			}
			codec := NewCodecFormat(nets[0], FormatFor(tc.Compress))
			srv, err := ListenExchanger("127.0.0.1:0", 2, codec, 7)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cli, err := DialExchanger(srv.Addr().String(), 1, 2, codec, 7)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			var wg sync.WaitGroup
			exs := []core.DeltaExchanger{srv, cli}
			for rank := 0; rank < 2; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					trainWithExchanger(t, nets[rank], exs[rank],
						ShardExamples(ds.Train, rank, 2), ds.Test, rank, 2, iters, v.mutate)
				}(rank)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}

			requireNetsBitIdentical(t, nets[0], nets[1], "TCP replicas")
			requireNetsBitIdentical(t, meshRes.Nets[0], nets[0], "mesh vs TCP")

			sst, cst := srv.Stats(), cli.Stats()
			if sst.Rounds != iters || cst.Rounds != iters {
				t.Fatalf("rounds: server %d client %d, want %d", sst.Rounds, cst.Rounds, iters)
			}
			if cst.BytesOut == 0 || cst.BytesIn == 0 || sst.BytesIn != cst.BytesOut {
				t.Fatalf("byte accounting mismatch: server %+v client %+v", sst, cst)
			}
			// The in-process mesh and the TCP wire must also *price* the
			// exchange identically — dist-comm's loopback measurements stand
			// in for real transport bytes (modulo the fixed frame header).
			meshOut := meshRes.Stats[1].BytesOut
			if cst.BytesOut-meshOut != int64(iters*frameHeaderLen) {
				t.Fatalf("mesh prices rank 1's upload at %d B, TCP shipped %d B (want exactly %d header bytes apart)",
					meshOut, cst.BytesOut, iters*frameHeaderLen)
			}
		})
	}
}

// TestTCPExchangerRaceStress hammers the hub with 3 concurrently
// exchanging ranks over many rounds of random deltas, verifying every
// rank receives the identical merged payload each round. Run under
// -race in CI.
func TestTCPExchangerRaceStress(t *testing.T) {
	dims := [][2]int32{{64, 256}}
	codec := testCodec(dims...)
	const shards = 3
	const rounds = 40

	srv, err := ListenExchanger("127.0.0.1:0", shards, codec, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	exs := make([]core.DeltaExchanger, shards)
	exs[0] = srv
	for rank := 1; rank < shards; rank++ {
		cli, err := DialExchanger(srv.Addr().String(), rank, shards, codec, 7)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		exs[rank] = cli
	}

	hashes := make([][rounds]uint64, shards)
	var wg sync.WaitGroup
	for rank := 0; rank < shards; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(rank) * 77))
			for round := 0; round < rounds; round++ {
				local := randomDelta(r, dims)
				merged, stopAll, err := exs[rank].Exchange(int64(round), local, false)
				if err != nil {
					t.Errorf("rank %d round %d: %v", rank, round, err)
					return
				}
				if stopAll {
					t.Errorf("rank %d round %d: unexpected stopAll", rank, round)
					return
				}
				buf, err := codec.AppendDelta(nil, merged)
				if err != nil {
					t.Errorf("rank %d round %d: %v", rank, round, err)
					return
				}
				h := fnv.New64a()
				h.Write(buf)
				hashes[rank][round] = h.Sum64()
			}
		}(rank)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for rank := 1; rank < shards; rank++ {
		for round := 0; round < rounds; round++ {
			if hashes[rank][round] != hashes[0][round] {
				t.Fatalf("rank %d round %d merged differs from rank 0", rank, round)
			}
		}
	}
}

// TestTCPHandshakeRejects: wrong shard counts, duplicate ranks and junk
// connections are refused without killing the join phase.
func TestTCPHandshakeRejects(t *testing.T) {
	dims := [][2]int32{{8, 8}}
	codec := testCodec(dims...)
	srv, err := ListenExchanger("127.0.0.1:0", 3, codec, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	if _, err := DialExchanger(addr, 1, 4, codec, 7); err == nil {
		t.Fatal("mismatched shard count accepted")
	}
	if _, err := DialExchanger(addr, 0, 3, codec, 7); err == nil {
		t.Fatal("rank 0 client accepted")
	}
	if _, err := DialExchanger(addr, 1, 3, codec, 8); err == nil {
		t.Fatal("mismatched schedule digest accepted")
	}
	c1, err := DialExchanger(addr, 1, 3, codec, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := DialExchanger(addr, 1, 3, codec, 7); err == nil {
		t.Fatal("duplicate rank accepted")
	}
	c2, err := DialExchanger(addr, 2, 3, codec, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// With both valid peers joined, one exchange completes.
	locals := make([]*core.SparseDelta, 3)
	for i := range locals {
		locals[i] = randomDelta(rand.New(rand.NewSource(int64(i))), dims)
	}
	var wg sync.WaitGroup
	exs := []core.DeltaExchanger{srv, c1, c2}
	for rank := 0; rank < 3; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if _, _, err := exs[rank].Exchange(0, locals[rank], false); err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
		}(rank)
	}
	wg.Wait()
}

// TestTwoShardConvergesLikeSingle is the acceptance check: on a learnable
// task, 2-shard data-parallel training reaches an accuracy comparable to
// the single-process run (same global examples, half per shard).
func TestTwoShardConvergesLikeSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence comparison trains two full runs; skipped in -short")
	}
	const classes = 256
	ds := distDataset(t, classes, 2000)
	cfg := distConfig(classes, multiThreadMode())

	single, err := core.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stc := core.TrainConfig{BatchSize: 64, Epochs: 6, EvalEvery: 40, EvalSamples: 300, Seed: 3}
	sres, err := single.Train(ds.Train, ds.Test, stc)
	if err != nil {
		t.Fatal(err)
	}

	// The sharded run sees the same global batch volume: 2 shards x batch
	// 32 per step, same number of steps per epoch.
	dtc := core.TrainConfig{BatchSize: 32, Epochs: 6, EvalEvery: 40, EvalSamples: 300, Seed: 3}
	dres, err := TrainSharded(context.Background(), cfg, ds.Train, ds.Test, dtc, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := dres.Results[0].FinalAcc
	t.Logf("single P@1=%.3f, 2-shard P@1=%.3f (exchange %.1f KiB/iter up, %.1f KiB/iter down)",
		sres.FinalAcc, got, dres.Stats[0].BytesOutPerRound()/1024, dres.Stats[0].BytesInPerRound()/1024)
	if got < 0.25 {
		t.Fatalf("2-shard run failed to learn: P@1 = %.3f", got)
	}
	if got < sres.FinalAcc-0.15 {
		t.Fatalf("2-shard P@1 %.3f is not within noise of single-process %.3f", got, sres.FinalAcc)
	}
}

// TestScheduleDigestCoversCompression: two ranks launched with different
// -compress settings would merge incompatible deltas; the handshake
// digest must tell them apart. OverlapExchange is deliberately excluded —
// it changes only local scheduling, so overlapped and synchronous
// replicas may legitimately share a group.
func TestScheduleDigestCoversCompression(t *testing.T) {
	cfg := distConfig(64, optim.ModeHogwild)
	base := core.TrainConfig{BatchSize: 16, Iterations: 100}
	d0 := ScheduleDigest(cfg, base, 42)

	same := base
	if ScheduleDigest(cfg, same, 42) != d0 {
		t.Fatal("digest not deterministic for identical settings")
	}
	bf16 := base
	bf16.Compress = core.CompressBF16
	if ScheduleDigest(cfg, bf16, 42) == d0 {
		t.Fatal("digest blind to the compression mode")
	}
	topkA, topkB := base, base
	topkA.Compress, topkA.TopKFrac = core.CompressTopK, 0.1
	topkB.Compress, topkB.TopKFrac = core.CompressTopK, 0.25
	if ScheduleDigest(cfg, topkA, 42) == ScheduleDigest(cfg, topkB, 42) {
		t.Fatal("digest blind to the topk fraction")
	}
	overlapped := base
	overlapped.OverlapExchange = true
	if ScheduleDigest(cfg, overlapped, 42) != d0 {
		t.Fatal("digest must not cover OverlapExchange: mixed groups stay in lockstep")
	}
	batch := base
	batch.BatchSize = 32
	if ScheduleDigest(cfg, batch, 42) == d0 {
		t.Fatal("digest blind to the batch size")
	}
}

// TestOverlapRebuildRaceStress drives the overlap pipeline's background
// exchange goroutine concurrently with multi-threaded workers and an
// aggressive hash-table rebuild schedule — the three async mechanisms
// sharing the network. Run under -race in CI; correctness (lockstep) is
// still asserted here.
func TestOverlapRebuildRaceStress(t *testing.T) {
	const classes = 128
	ds := distDataset(t, classes, 512)
	cfg := distConfig(classes, multiThreadMode())
	cfg.RebuildN0 = 3 // rebuild every few batches, overlapping the exchange
	tc := core.TrainConfig{
		BatchSize: 16, Iterations: 30, Threads: 2, EvalEvery: 7, Seed: 3,
		OverlapExchange: true,
		Compress:        core.CompressTopK, TopKFrac: 0.5,
	}
	res, err := TrainSharded(context.Background(), cfg, ds.Train, ds.Test, tc, 2)
	if err != nil {
		t.Fatal(err)
	}
	requireNetsBitIdentical(t, res.Nets[0], res.Nets[1], "overlap+rebuild replicas")
	if res.Results[0].Rebuilds == 0 {
		t.Fatal("no rebuilds fired; stress is vacuous")
	}
}

// TestTwoShardTopKConvergesLikeUncompressed is the compression acceptance
// check: 2-shard training with overlapped topk:0.25 exchange must reach
// an accuracy comparable to the uncompressed 2-shard run — error feedback
// keeps the dropped 75% of gradient mass flowing, just one horizon late.
func TestTwoShardTopKConvergesLikeUncompressed(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence comparison trains two full runs; skipped in -short")
	}
	const classes = 256
	ds := distDataset(t, classes, 2000)
	cfg := distConfig(classes, optim.ModeHogwild)

	// Both runs are deterministic, so the comparison cannot flake under
	// load: one thread per replica (Threads is the group's budget) fixes
	// the gradient sums, and synchronous rebuilds fix the batch at which
	// each table generation is published — a background build lands later
	// on a busy machine, and that alone moved the final P@1 by 0.15.
	tc := core.TrainConfig{BatchSize: 32, Epochs: 6, EvalEvery: 40, EvalSamples: 300, Seed: 3, Threads: 2, SyncRebuild: true}
	plain, err := TrainSharded(context.Background(), cfg, ds.Train, ds.Test, tc, 2)
	if err != nil {
		t.Fatal(err)
	}

	ctc := tc
	ctc.Compress, ctc.TopKFrac = core.CompressTopK, 0.25
	ctc.OverlapExchange = true
	comp, err := TrainSharded(context.Background(), cfg, ds.Train, ds.Test, ctc, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, want := comp.Results[0].FinalAcc, plain.Results[0].FinalAcc
	ratio := comp.Stats[0].BytesOutPerRound() / plain.Stats[0].BytesOutPerRound()
	t.Logf("2-shard P@1: fp32 %.3f, topk:0.25+overlap %.3f (payload ratio %.2f)", want, got, ratio)
	if got < 0.25 {
		t.Fatalf("compressed 2-shard run failed to learn: P@1 = %.3f", got)
	}
	if got < want-0.15 {
		t.Fatalf("topk:0.25 P@1 %.3f is not within noise of uncompressed %.3f", got, want)
	}
	if ratio > 0.5 {
		t.Fatalf("topk:0.25 shipped %.2fx of the fp32 payload, want well under half", ratio)
	}
}

// TestShardTrainConfigDegenerate: schedule derivation must not panic
// when the dataset is smaller than the shard count (the CLI validates,
// but the exported helper must stay total).
func TestShardTrainConfigDegenerate(t *testing.T) {
	tc := ShardTrainConfig(core.TrainConfig{Epochs: 1}, 3, 0, 4)
	if tc.BatchSize < 1 || tc.Iterations < 1 {
		t.Fatalf("degenerate schedule: batch %d, iterations %d", tc.BatchSize, tc.Iterations)
	}
	// Normal path: every rank derives the identical schedule.
	a := ShardTrainConfig(core.TrainConfig{Epochs: 2, BatchSize: 32}, 1001, 0, 3)
	b := ShardTrainConfig(core.TrainConfig{Epochs: 2, BatchSize: 32}, 1001, 2, 3)
	if a.BatchSize != b.BatchSize || a.Iterations != b.Iterations || a.Shards != b.Shards {
		t.Fatalf("ranks derived different schedules: %+v vs %+v", a, b)
	}
	if a.Seed == b.Seed {
		t.Fatal("ranks must draw distinct shuffle seeds")
	}
}

// TestTCPSilentConnDoesNotBlockJoin: a connection that never sends its
// handshake must not stall legitimate ranks forever, and Close must cut
// an in-flight join loose instead of deadlocking.
func TestTCPSilentConnDoesNotBlockJoin(t *testing.T) {
	dims := [][2]int32{{8, 8}}
	codec := testCodec(dims...)
	srv, err := ListenExchanger("127.0.0.1:0", 2, codec, 7)
	if err != nil {
		t.Fatal(err)
	}
	// A scanner-style connection: connect, send nothing.
	silent, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	time.Sleep(20 * time.Millisecond) // let acceptPeers pick it up

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close deadlocked behind a silent connection")
	}
}

// TestMeshDoubleDepositPoisons: misusing one rank from two goroutines
// must fail the whole group loudly, not deadlock the peers silently.
func TestMeshDoubleDepositPoisons(t *testing.T) {
	dims := [][2]int32{{8, 8}}
	mesh := NewMesh(2, testCodec(dims...))
	local := randomDelta(rand.New(rand.NewSource(2)), dims)
	r0 := mesh.Rank(0)

	first := make(chan error, 1)
	go func() {
		_, _, err := r0.Exchange(0, local, false)
		first <- err
	}()
	// Wait until the first deposit landed, then deposit again on the
	// same rank.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mesh.mu.Lock()
		deposited := mesh.deposits[0] != nil
		mesh.mu.Unlock()
		if deposited || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := r0.Exchange(0, local, false); err == nil {
		t.Fatal("double deposit accepted")
	}
	if err := <-first; err == nil {
		t.Fatal("first deposit survived the poison")
	}
	if _, _, err := mesh.Rank(1).Exchange(0, local, false); err == nil {
		t.Fatal("peer rank not released by the poison")
	}
}

// TestShardsMismatchDetected: wiring an exchanger whose group size
// disagrees with TrainConfig.Shards must fail up front — applying the
// merged delta with the wrong averaging would corrupt training silently.
func TestShardsMismatchDetected(t *testing.T) {
	const classes = 128
	ds := distDataset(t, classes, 256)
	net, err := core.NewNetwork(distConfig(classes, optim.ModeBatchSync))
	if err != nil {
		t.Fatal(err)
	}
	tc := core.TrainConfig{
		BatchSize: 16, Iterations: 2, Threads: 1,
		Exchanger: NewMesh(4, nil).Rank(0), // group of 4, Shards defaults to 1
	}
	if _, err := net.TrainContext(context.Background(), ds.Train, ds.Test, tc); err == nil {
		t.Fatal("Shards/exchanger group-size mismatch accepted")
	}
}
