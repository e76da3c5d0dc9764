package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/sampling"
)

const testFeatureDim = 600 // above colTrackThreshold: first layer tracks columns

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

func distConfig(classes int) core.Config {
	return core.Config{
		InputDim: testFeatureDim,
		Seed:     11,
		Layers: []core.LayerConfig{
			{Size: 64, Activation: core.ActReLU},
			{
				Size: classes, Activation: core.ActSoftmax,
				Sampled: true, Hash: lsh.KindSimhash, K: 5, L: 16,
				Strategy: sampling.KindVanilla, Beta: 48,
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

// requireTablesEqual compares two networks' published hash tables bucket
// for bucket.
func requireTablesEqual(t *testing.T, a, b *core.Network, context string) {
	t.Helper()
	for li := 0; li < a.NumLayers(); li++ {
		if a.Layer(li).Sampled() && !a.Layer(li).Tables().Equal(b.Layer(li).Tables()) {
			t.Fatalf("%s: layer %d published different tables", context, li)
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

// TestTrainShardedReplicasInLockstep is the data-parallel core guarantee:
// every replica applies the same merged delta, so after any number of
// batches all replicas hold bit-identical weights.
func TestTrainShardedReplicasInLockstep(t *testing.T) {
	const classes = 128
	ds := distDataset(t, classes, 512)
	cfg := distConfig(classes)
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

// TestTrainShardedLockstepOverlap: with the exchange overlapped behind
// the next batch's forward pass, 3-shard in-process training still ends
// with every replica bit-identical (the merged delta each rank applies is
// shared), and the blocked/hidden exchange split is accounted.
func TestTrainShardedLockstepOverlap(t *testing.T) {
	const classes = 128
	ds := distDataset(t, classes, 512)
	cfg := distConfig(classes)
	tc := core.TrainConfig{BatchSize: 16, Iterations: 20, Threads: 2, EvalEvery: 8, Seed: 3, OverlapExchange: true}
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
	r0 := res.Results[0]
	if r0.ExchangeNS < 0 || r0.ExchangeHiddenNS < 0 {
		t.Fatalf("negative exchange split: blocked %d hidden %d", r0.ExchangeNS, r0.ExchangeHiddenNS)
	}
}

// TestTrainShardedCoordinatedStop: a TargetAcc stop on one replica (their
// eval subsets differ, so one replica can cross the target alone) halts
// every replica at the same step via the exchanged stop flag.
func TestTrainShardedCoordinatedStop(t *testing.T) {
	const classes = 128
	ds := distDataset(t, classes, 512)
	cfg := distConfig(classes)
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
	cfg := distConfig(classes)
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

// TestTCPShardedTrainingMatchesGolden trains the golden 2-shard workload
// over a TCP group wired by hand (rank 0 serves, rank 1 dials, both train
// concurrently at two threads each), with and without overlap: the codec
// and framing are lossless, so both ranks end on the recorded hash with
// the same tables. Each rank's measured upload, its own frame per round,
// undercuts the historical 8 B/cell index+value estimate.
func TestTCPShardedTrainingMatchesGolden(t *testing.T) {
	const shards = 2
	ds := distDataset(t, goldenClasses, 512)
	for _, g := range shardedGoldens {
		if g.shards != shards {
			continue
		}
		t.Run(fmt.Sprintf("overlap=%v", g.overlap), func(t *testing.T) {
			nets, exs, results := trainTCPGroup(t, ds, shards, func(tc *core.TrainConfig) {
				tc.OverlapExchange = g.overlap
				tc.Threads = 2
			})
			if results[0].Rebuilds != 3 {
				t.Fatalf("published %d rebuilds, want 3", results[0].Rebuilds)
			}
			requireNetsBitIdentical(t, nets[0], nets[1], "TCP replicas")
			requireTablesEqual(t, nets[0], nets[1], "TCP replicas")
			requireGolden(t, nets[0], g.want)

			var st [shards]ExchangeStats
			for rank, ex := range exs {
				st[rank] = ex.(interface{ Stats() ExchangeStats }).Stats()
				if st[rank].Rounds != goldenIters {
					t.Fatalf("rank %d ran %d rounds, want %d", rank, st[rank].Rounds, goldenIters)
				}
				estimate := results[rank].TouchedPerIter * 8
				if measured := st[rank].BytesOutPerRound(); measured <= 0 || measured > estimate {
					t.Fatalf("rank %d sent %.0f B/round; want (0, %.0f], the 8 B/cell estimate", rank, measured, estimate)
				}
			}
			if st[0].BytesIn != st[1].BytesOut || st[1].BytesIn != st[0].BytesOut {
				t.Fatalf("byte accounting mismatch: %+v", st)
			}
		})
	}
}

// TestTCPExchangerRaceStress hammers a TCP group of 3 concurrently
// exchanging ranks over many rounds of random deltas, verifying every
// rank merges the identical payload each round. Run under -race in CI.
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

	t.Run("shard count", func(t *testing.T) {
		if _, err := DialExchanger(addr, 1, 4, codec, 7); err == nil {
			t.Fatal("mismatched shard count accepted")
		}
	})
	t.Run("rank 0", func(t *testing.T) {
		if _, err := DialExchanger(addr, 0, 3, codec, 7); err == nil {
			t.Fatal("rank 0 client accepted")
		}
	})
	t.Run("rank past shards", func(t *testing.T) {
		if _, err := DialExchanger(addr, 3, 3, codec, 7); err == nil {
			t.Fatal("rank 3 of 3 accepted")
		}
	})
	t.Run("schedule digest", func(t *testing.T) {
		if _, err := DialExchanger(addr, 1, 3, codec, 8); err == nil {
			t.Fatal("mismatched schedule digest accepted")
		}
	})
	// A rank built for codec v3 (which framed a value-format byte) is
	// refused even with every other field right.
	t.Run("codec v3", func(t *testing.T) {
		conn, ack, err := rawJoin(addr, [4]byte{'S', 'D', 'X', '3'}, 1, 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
		if ack[4] == 0 {
			t.Fatal("v3 handshake accepted")
		}
	})
	// A rank built for the hub rounds, which shared this codec version but
	// read rank 0's frame as the merged delta, is refused.
	t.Run("hub protocol", func(t *testing.T) {
		conn, ack, err := rawJoin(addr, [4]byte{'S', 'D', 'X', '0' + codecVersion}, 1, 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
		if ack[4] == 0 {
			t.Fatal("hub-protocol handshake accepted")
		}
	})
	c1, err := DialExchanger(addr, 1, 3, codec, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	t.Run("duplicate rank", func(t *testing.T) {
		if _, err := DialExchanger(addr, 1, 3, codec, 7); err == nil {
			t.Fatal("duplicate rank accepted")
		}
	})
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

// rawJoin dials addr and sends a handshake by hand, returning the open
// connection and the server's ack.
func rawJoin(addr string, magic [4]byte, rank, shards int, digest uint64) (net.Conn, [5]byte, error) {
	var ack [5]byte
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, ack, err
	}
	if _, err := conn.Write(hello(magic, rank, shards, digest)); err != nil {
		conn.Close()
		return nil, ack, err
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	_, err = io.ReadFull(conn, ack[:])
	conn.SetDeadline(time.Time{})
	if err != nil {
		conn.Close()
	}
	return conn, ack, err
}

// awaitErrors waits for n results on errs, failing the test on a nil
// error or when one takes longer than limit.
func awaitErrors(t *testing.T, errs <-chan error, n int, limit time.Duration, what string) {
	t.Helper()
	deadline := time.After(limit)
	for range n {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatalf("%s: an exchange succeeded", what)
			}
		case <-deadline:
			t.Fatalf("%s: exchanges still blocked after %v (roundTimeout is %v)", what, limit, roundTimeout)
		}
	}
}

// awaitGoroutines waits for the goroutine count to fall back to base.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the group", runtime.NumGoroutine(), base)
		}
	}
}

// TestTCPPeerLossMidRound: a rank that dies mid-round — half a frame
// written, then its connection closed — fails the hub's Exchange well
// inside roundTimeout, and the surviving client, which already uploaded
// and is waiting for the merged delta, unblocks with an error instead of
// waiting out its read. Once both ends are closed, every goroutine the
// group started has exited.
func TestTCPPeerLossMidRound(t *testing.T) {
	base := runtime.NumGoroutine()
	dims := [][2]int32{{16, 64}}
	codec := testCodec(dims...)
	srv, err := ListenExchanger("127.0.0.1:0", 3, codec, 7)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	cli, err := DialExchanger(addr, 1, 3, codec, 7)
	if err != nil {
		t.Fatal(err)
	}
	dying, ack, err := rawJoin(addr, tcpMagic, 2, 3, 7)
	if err != nil || ack[4] != 0 {
		t.Fatalf("rank 2 join: ack %v, err %v", ack, err)
	}

	local := randomDelta(rand.New(rand.NewSource(4)), dims)
	errs := make(chan error, 2)
	go func() {
		_, _, err := srv.Exchange(0, local, false)
		errs <- err
	}()
	go func() {
		_, _, err := cli.Exchange(0, local, false)
		errs <- err
	}()
	payload, err := codec.AppendDelta(nil, local)
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if _, err := writeFrame(bufio.NewWriter(&frame), 0, false, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := dying.Write(frame.Bytes()[:frame.Len()/2]); err != nil {
		t.Fatal(err)
	}
	dying.Close()
	awaitErrors(t, errs, 2, 10*time.Second, "peer loss")

	cli.Close()
	srv.Close()
	awaitGoroutines(t, base)
}

// TestTCPHubCloseFailsClients: a hub that goes away while a client waits
// for the merged delta fails that client's Exchange, and so does the
// client's next round; no goroutine outlives the group.
func TestTCPHubCloseFailsClients(t *testing.T) {
	base := runtime.NumGoroutine()
	dims := [][2]int32{{8, 8}}
	codec := testCodec(dims...)
	srv, err := ListenExchanger("127.0.0.1:0", 2, codec, 7)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialExchanger(srv.Addr().String(), 1, 2, codec, 7)
	if err != nil {
		t.Fatal(err)
	}
	local := randomDelta(rand.New(rand.NewSource(5)), dims)
	errs := make(chan error, 1)
	go func() {
		_, _, err := cli.Exchange(0, local, false)
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the upload land
	srv.Close()
	awaitErrors(t, errs, 1, 10*time.Second, "hub close")
	go func() {
		_, _, err := cli.Exchange(1, local, false)
		errs <- err
	}()
	awaitErrors(t, errs, 1, 10*time.Second, "round after hub close")

	cli.Close()
	awaitGoroutines(t, base)
}

// TestFrameRoundTrip: readFrame returns what writeFrame sent, header and
// payload, and both report the same byte count; one reused buffer carries
// frames of growing and shrinking size.
func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	for _, tc := range []struct {
		name string
		step int64
		stop bool
		size int
	}{
		{"empty", 0, false, 0},
		{"stop", 7, true, 3},
		{"large step", 1<<62 + 5, false, 100},
		{"grown buffer", 1, false, 5000},
		{"shrunk buffer", 2, true, 17},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := make([]byte, tc.size)
			rand.New(rand.NewSource(int64(tc.size))).Read(payload)
			var wire bytes.Buffer
			wrote, err := writeFrame(bufio.NewWriter(&wire), tc.step, tc.stop, payload)
			if err != nil {
				t.Fatal(err)
			}
			if wrote != wire.Len() || wrote != frameHeaderLen+tc.size {
				t.Fatalf("writeFrame reported %d bytes, wrote %d, want %d", wrote, wire.Len(), frameHeaderLen+tc.size)
			}
			step, stop, got, read, err := readFrame(bufio.NewReader(&wire), buf)
			if err != nil {
				t.Fatal(err)
			}
			buf = got
			if step != tc.step || stop != tc.stop || !bytes.Equal(got, payload) || read != wrote {
				t.Fatalf("read step %d stop %v %d-byte payload (%d bytes), want step %d stop %v %d-byte payload (%d bytes)",
					step, stop, len(got), read, tc.step, tc.stop, tc.size, wrote)
			}
		})
	}
}

// badFrames returns a whole six-byte-payload frame and the ways to break
// it: cut short in its header or its payload, or announcing more than
// maxFramePayload.
func badFrames(t testing.TB) ([]byte, map[string][]byte) {
	var whole bytes.Buffer
	if _, err := writeFrame(bufio.NewWriter(&whole), 3, false, []byte{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	over := append([]byte(nil), whole.Bytes()[:frameHeaderLen]...)
	binary.LittleEndian.PutUint32(over[9:13], maxFramePayload+1)
	return whole.Bytes(), map[string][]byte{
		"short header":  whole.Bytes()[:frameHeaderLen-1],
		"short payload": whole.Bytes()[:whole.Len()-1],
		"over limit":    over,
	}
}

// TestReadFrameRejects: a frame cut short in its header or its payload,
// and a header announcing more than maxFramePayload, fail the read before
// anything is allocated for the announced length.
func TestReadFrameRejects(t *testing.T) {
	whole, bad := badFrames(t)
	for name, wire := range bad {
		t.Run(name, func(t *testing.T) {
			_, _, payload, n, err := readFrame(bufio.NewReader(bytes.NewReader(wire)), nil)
			if err == nil || n != 0 {
				t.Fatalf("read %d bytes, err %v; want an error", n, err)
			}
			if cap(payload) > len(whole) {
				t.Fatalf("allocated %d bytes for a refused frame", cap(payload))
			}
		})
	}
}

// TestReadFrameAllocatesAsPayloadArrives: a header announcing the largest
// allowed payload, followed by far fewer bytes, is refused having
// allocated in proportion to the bytes that came, not the 1 GiB
// announced.
func TestReadFrameAllocatesAsPayloadArrives(t *testing.T) {
	wire := announcedNotSent()
	_, _, payload, n, err := readFrame(bufio.NewReader(bytes.NewReader(wire)), nil)
	if err == nil || n != 0 {
		t.Fatalf("read %d bytes, err %v; want an error", n, err)
	}
	if cap(payload) > 1<<20 {
		t.Fatalf("allocated %d bytes for %d bytes received", cap(payload), len(wire))
	}
}

// announcedNotSent is a frame header announcing maxFramePayload bytes,
// followed by 100 of them.
func announcedNotSent() []byte {
	wire := make([]byte, frameHeaderLen+100)
	binary.LittleEndian.PutUint32(wire[9:13], maxFramePayload)
	return wire
}

// FuzzReadFrame drives readFrame with arbitrary bytes, seeded with
// TestReadFrameRejects' and TestReadFrameAllocatesAsPayloadArrives' frames: it may not panic, a refused read consumes
// nothing and allocates in proportion to the bytes it was given, not to
// the length a header announces, and an accepted frame is the input's
// prefix — writeFrame of what was read reproduces it, flag bits other
// than stop aside.
func FuzzReadFrame(f *testing.F) {
	whole, bad := badFrames(f)
	f.Add(whole)
	for _, wire := range bad {
		f.Add(wire)
	}
	f.Add(append(append([]byte(nil), whole...), whole...)) // two frames back to back
	f.Add(announcedNotSent())
	f.Fuzz(func(t *testing.T, data []byte) {
		step, stop, payload, n, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil {
			if n != 0 || cap(payload) > 2*len(data)+64<<10 {
				t.Fatalf("refused read reports %d bytes, allocated %d of a %d-byte input", n, cap(payload), len(data))
			}
			return
		}
		if n != frameHeaderLen+len(payload) || n > len(data) {
			t.Fatalf("read %d bytes for a %d-byte payload from %d bytes", n, len(payload), len(data))
		}
		var again bytes.Buffer
		if _, err := writeFrame(bufio.NewWriter(&again), step, stop, payload); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), data[:n]...)
		want[8] &= 1
		if !bytes.Equal(again.Bytes(), want) {
			t.Fatal("re-written frame differs from the bytes read")
		}
	})
}

// hello renders a client handshake: magic, rank, shard count, digest.
func hello(magic [4]byte, rank, shards int, digest uint64) []byte {
	h := append(magic[:], 0, 0, 0, 0)
	binary.LittleEndian.PutUint16(h[4:], uint16(rank))
	binary.LittleEndian.PutUint16(h[6:], uint16(shards))
	return binary.LittleEndian.AppendUint64(h, digest)
}

// FuzzHandshake feeds arbitrary hellos to TCPServer.handshake over
// net.Pipe, seeded with TestTCPHandshakeRejects' hellos, against a
// 3-shard server whose rank 2 has already joined. It may not panic; a
// short hello is an error with no ack; a whole one is acked with the
// group magic, and accepted — returning its rank — only if magic, shard
// count, digest and rank are all valid.
func FuzzHandshake(f *testing.F) {
	const shards, digest = 3, 7
	f.Add(hello(tcpMagic, 1, shards, digest))
	f.Add(hello(tcpMagic, 1, 4, digest))
	f.Add(hello(tcpMagic, 0, shards, digest))
	f.Add(hello(tcpMagic, 3, shards, digest))
	f.Add(hello(tcpMagic, 2, shards, digest))
	f.Add(hello(tcpMagic, 1, shards, digest+1))
	f.Add(hello([4]byte{'S', 'D', 'X', '3'}, 1, shards, digest))
	f.Add(hello([4]byte{'S', 'D', 'X', '0' + codecVersion}, 1, shards, digest))
	f.Add([]byte("GET / HTTP/1.1\r\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &TCPServer{peerRound: peerRound{frames: make([]frame, shards)}, digest: digest, peers: make([]*link, shards)}
		s.peers[2] = &link{}
		srv, cli := net.Pipe()
		defer cli.Close()
		type result struct {
			rank int
			err  error
		}
		done := make(chan result, 1)
		go func() {
			rank, err := s.handshake(srv)
			srv.Close()
			done <- result{rank, err}
		}()
		h := data[:min(len(data), 16)]
		cli.Write(h) // returns once handshake has read all of h
		if len(h) < 16 {
			cli.Close()
			if r := <-done; r.err == nil {
				t.Fatalf("%d-byte hello accepted", len(h))
			}
			return
		}
		var ack [5]byte
		_, ackErr := io.ReadFull(cli, ack[:])
		r := <-done
		if ackErr != nil || [4]byte(ack[:4]) != tcpMagic {
			t.Fatalf("ack %x, read error %v", ack, ackErr)
		}
		rank := int(binary.LittleEndian.Uint16(h[4:6]))
		valid := [4]byte(h[:4]) == tcpMagic &&
			binary.LittleEndian.Uint16(h[6:8]) == shards &&
			binary.LittleEndian.Uint64(h[8:16]) == digest &&
			rank == 1 // 0 is the server, 2 has joined, 3+ is past the group
		if (r.err == nil) != valid || (ack[4] == 0) != valid {
			t.Fatalf("hello %x: handshake err %v, ack status %d; valid %v", h, r.err, ack[4], valid)
		}
		if valid && r.rank != rank {
			t.Fatalf("accepted rank %d, hello says %d", r.rank, rank)
		}
	})
}

// TestExchangeStatsPerRound: the per-round means divide the byte totals
// by the rounds, and a stats record with no rounds reports zero rather
// than NaN.
func TestExchangeStatsPerRound(t *testing.T) {
	if s := (ExchangeStats{}); s.BytesOutPerRound() != 0 || s.BytesInPerRound() != 0 {
		t.Fatalf("no rounds: %v out, %v in per round; want 0", s.BytesOutPerRound(), s.BytesInPerRound())
	}
	s := ExchangeStats{Rounds: 4, BytesOut: 10, BytesIn: 6}
	if s.BytesOutPerRound() != 2.5 || s.BytesInPerRound() != 1.5 {
		t.Fatalf("%v out, %v in per round; want 2.5, 1.5", s.BytesOutPerRound(), s.BytesInPerRound())
	}
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
	cfg := distConfig(classes)

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

// TestOverlapRebuildRaceStress drives the overlap pipeline's background
// exchange goroutine concurrently with multi-threaded workers and an
// aggressive hash-table rebuild schedule — the three async mechanisms
// sharing the network. Run under -race in CI; correctness (lockstep) is
// still asserted here.
func TestOverlapRebuildRaceStress(t *testing.T) {
	const classes = 128
	ds := distDataset(t, classes, 512)
	cfg := distConfig(classes)
	cfg.RebuildN0 = 3 // rebuild every few batches, overlapping the exchange
	tc := core.TrainConfig{
		BatchSize: 16, Iterations: 30, Threads: 2, EvalEvery: 7, Seed: 3,
		OverlapExchange: true,
	}
	res, err := TrainSharded(context.Background(), cfg, ds.Train, ds.Test, tc, 2)
	if err != nil {
		t.Fatal(err)
	}
	requireNetsBitIdentical(t, res.Nets[0], res.Nets[1], "overlap+rebuild replicas")
	requireTablesEqual(t, res.Nets[0], res.Nets[1], "overlap+rebuild replicas")
	if res.Results[0].Rebuilds == 0 {
		t.Fatal("no rebuilds fired; stress is vacuous")
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

// fourShards is an exchanger that reports a group of 4 and is never
// reached: the group-size check refuses it first.
type fourShards struct{}

func (fourShards) Shards() int { return 4 }

func (fourShards) Exchange(int64, *core.SparseDelta, bool) (*core.SparseDelta, bool, error) {
	return nil, false, errors.New("exchange reached past the group-size check")
}

// TestShardsMismatchDetected: wiring an exchanger whose group size
// disagrees with TrainConfig.Shards must fail up front — applying the
// merged delta with the wrong averaging would corrupt training silently.
func TestShardsMismatchDetected(t *testing.T) {
	const classes = 128
	ds := distDataset(t, classes, 256)
	net, err := core.NewNetwork(distConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	tc := core.TrainConfig{
		BatchSize: 16, Iterations: 2, Threads: 1,
		Exchanger: fourShards{}, // group of 4, Shards defaults to 1
	}
	_, err = net.TrainContext(context.Background(), ds.Train, ds.Test, tc)
	if err == nil || !strings.Contains(err.Error(), "has 4") {
		t.Fatalf("Shards/exchanger group-size mismatch: err %v", err)
	}
}

// TestTrainShardedFailedReplicaFailsGroup: a replica that fails — here on
// an out-of-range label in its shard, before its first exchange — closes
// its exchanger, so every peer's exchange fails and TrainSharded returns
// that replica's error within seconds instead of waiting out
// roundTimeout. The bad example sits once on a client rank and once on
// rank 0, whose exchanger hosts every connection.
func TestTrainShardedFailedReplicaFailsGroup(t *testing.T) {
	const classes, shards = 128, 3
	ds := distDataset(t, classes, 512)
	for _, bad := range []int{1, 0} {
		t.Run(fmt.Sprintf("rank=%d", bad), func(t *testing.T) {
			train := slices.Clone(ds.Train)
			train[bad].Labels = []int32{classes} // round-robin: example r is rank r's
			tc := core.TrainConfig{BatchSize: 16, Iterations: 1 << 20, Threads: shards, Seed: 3}
			type outcome struct {
				res *ShardedResult
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := TrainSharded(context.Background(), distConfig(classes), train, ds.Test, tc, shards)
				done <- outcome{res, err}
			}()
			var o outcome
			select {
			case o = <-done:
			case <-time.After(20 * time.Second):
				t.Fatalf("group still training 20 s after replica %d failed (roundTimeout is %v)", bad, roundTimeout)
			}
			want := fmt.Sprintf("replica %d: core: training example 0: label %d out of range", bad, classes)
			if o.err == nil || !strings.Contains(o.err.Error(), want) {
				t.Fatalf("err %v; want it to name %q", o.err, want)
			}
			for rank, r := range o.res.Results {
				if rank == bad && r != nil {
					t.Fatalf("failed replica %d returned a result", rank)
				}
				if r != nil && r.Iterations != 0 {
					t.Fatalf("rank %d stepped %d batches past a dead peer", rank, r.Iterations)
				}
			}
		})
	}
}

// TestTCPStepMismatchFailsRound: ranks offering different steps to one
// round — a rank driven off the shared schedule — fail that round on every
// rank instead of merging parts of different steps.
func TestTCPStepMismatchFailsRound(t *testing.T) {
	dims := [][2]int32{{8, 8}}
	codec := testCodec(dims...)
	exs := tcpGroup(t, 2, codec)
	local := randomDelta(rand.New(rand.NewSource(2)), dims)
	errs := make(chan error, 2)
	for rank, ex := range exs {
		go func() {
			_, _, err := ex.Exchange(int64(rank), local, false)
			errs <- err
		}()
	}
	awaitErrors(t, errs, 2, 10*time.Second, "step mismatch")
}
