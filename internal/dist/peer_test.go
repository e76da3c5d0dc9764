package dist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/optim"
	"repro/internal/sampling"
)

// tcpGroup starts a TCP group of shards ranks on localhost and returns its
// exchangers by rank; the group is closed when the test ends.
func tcpGroup(t *testing.T, shards int, codec *Codec) []core.DeltaExchanger {
	t.Helper()
	srv, err := ListenExchanger("127.0.0.1:0", shards, codec, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	exs := []core.DeltaExchanger{srv}
	for rank := 1; rank < shards; rank++ {
		cli, err := DialExchanger(srv.Addr().String(), rank, shards, codec, 7)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		exs = append(exs, cli)
	}
	return exs
}

// trainTCPGroup trains goldenConfig's network for goldenIters batches on
// every rank of a hand-wired TCP group of shards ranks, concurrently, each
// on its round-robin shard of ds, and returns the networks, exchangers and
// results by rank.
func trainTCPGroup(t *testing.T, ds *dataset.Dataset, shards int, mutate func(*core.TrainConfig)) ([]*core.Network, []core.DeltaExchanger, []*core.TrainResult) {
	t.Helper()
	nets := make([]*core.Network, shards)
	for r := range nets {
		var err error
		if nets[r], err = core.NewNetwork(goldenConfig()); err != nil {
			t.Fatal(err)
		}
	}
	exs := tcpGroup(t, shards, NewCodec(nets[0]))
	results := make([]*core.TrainResult, shards)
	var wg sync.WaitGroup
	for rank := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[rank] = trainWithExchanger(t, nets[rank], exs[rank],
				ShardExamples(ds.Train, rank, shards), ds.Test, rank, shards, goldenIters, mutate)
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return nets, exs, results
}

// roundResult is one rank's outcome of a round.
type roundResult struct {
	merged  *core.SparseDelta
	stopAll bool
	err     error
}

// exchangeAll runs one round on every rank concurrently, rank r offering
// locals[r], and returns each rank's outcome.
func exchangeAll(exs []core.DeltaExchanger, step int64, locals []*core.SparseDelta) []roundResult {
	out := make([]roundResult, len(exs))
	var wg sync.WaitGroup
	for rank, ex := range exs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &out[rank]
			res.merged, res.stopAll, res.err = ex.Exchange(step, locals[rank], false)
		}()
	}
	wg.Wait()
	return out
}

// encodedMerge returns the encoding of a round's merged delta.
func encodedMerge(t *testing.T, codec *Codec, d *core.SparseDelta) string {
	t.Helper()
	buf, err := codec.AppendDelta(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestTCPThreeShardTrainingMatchesGolden trains the golden 3-shard
// workload over a TCP group wired by hand, with and without overlap. The
// fold's float sums depend on the records' order, so the recorded hash on
// every rank pins the rank-order merge through rank 0's forwarding of the
// clients' frames.
func TestTCPThreeShardTrainingMatchesGolden(t *testing.T) {
	const shards = 3
	ds := distDataset(t, goldenClasses, 512)
	for _, g := range shardedGoldens {
		if g.shards != shards {
			continue
		}
		t.Run(fmt.Sprintf("overlap=%v", g.overlap), func(t *testing.T) {
			nets, exs, _ := trainTCPGroup(t, ds, shards, func(tc *core.TrainConfig) { tc.OverlapExchange = g.overlap })
			for rank := 1; rank < shards; rank++ {
				requireNetsBitIdentical(t, nets[0], nets[rank], fmt.Sprintf("TCP rank 0 vs rank %d", rank))
			}
			requireGolden(t, nets[0], g.want)

			// Every frame crosses each client link once: a client writes its
			// own and reads the other two, and rank 0 reads what they write.
			st := make([]ExchangeStats, shards)
			for rank, ex := range exs {
				st[rank] = ex.(interface{ Stats() ExchangeStats }).Stats()
				if st[rank].Rounds != goldenIters {
					t.Fatalf("rank %d ran %d rounds, want %d", rank, st[rank].Rounds, goldenIters)
				}
			}
			if st[0].BytesIn != st[1].BytesOut+st[2].BytesOut || st[1].BytesIn+st[2].BytesIn != st[0].BytesOut {
				t.Fatalf("byte accounting does not add up: %+v", st)
			}
		})
	}
}

// TestTCPLargeFramesDoNotDeadlock: frames far larger than the socket
// buffers, sent by every rank at once, complete a round at 2 and 3
// shards, where a rank that wrote before reading would block forever.
func TestTCPLargeFramesDoNotDeadlock(t *testing.T) {
	const records, width = 2048, 1024 // 16 MiB of δ and activations per frame
	codec := newCodec(16, []layerShape{{out: width, full: true, vals: true}, {out: 8}})
	local := &core.SparseDelta{Layers: make([]core.LayerDelta, 2)}
	vals := make([]float32, width)
	for i := range vals {
		vals[i] = float32(i%7 + 1)
	}
	for range records {
		addRecord(&local.Input, nil, nil, nil)
		addRecord(&local.Layers[0], nil, vals, vals)
		addRecord(&local.Layers[1], nil, nil, nil)
	}
	if buf, err := codec.AppendDelta(nil, local); err != nil || len(buf) < 16<<20 {
		t.Fatalf("frame of %d bytes is not large (%v)", len(buf), err)
	}
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			exs := tcpGroup(t, shards, codec)
			locals := make([]*core.SparseDelta, shards)
			for r := range locals {
				locals[r] = local
			}
			done := make(chan []roundResult, 1)
			go func() { done <- exchangeAll(exs, 0, locals) }()
			select {
			case res := <-done:
				for rank, rr := range res {
					if rr.err != nil {
						t.Fatalf("rank %d: %v", rank, rr.err)
					}
					if n, _ := rr.merged.Records(); n != shards*records || rr.merged.Layers[0].Vals[len(vals)*records+width-1] != vals[width-1] {
						t.Fatalf("rank %d merged %d records, want %d copies of %d", rank, n, shards, records)
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatal("round with frames larger than the socket buffers still blocked after 10s")
			}
		})
	}
}

// TestNonFiniteFactorRefusedEverywhere: a rank whose own records carry a
// NaN or ±Inf — its training diverged — ships them, and no rank applies
// them, at 2 and 3 shards, wherever the bad rank sits: its peers'
// DecodeDelta refuses its frame, and its own MergeDeltas, which takes its
// part raw, refuses the merge (or it fails on the link its peers cut).
func TestNonFiniteFactorRefusedEverywhere(t *testing.T) {
	codec := factorKinds
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		for _, shards := range []int{2, 3} {
			for badRank := range shards {
				t.Run(fmt.Sprintf("%v/shards=%d/rank %d", bad, shards, badRank), func(t *testing.T) {
					exs := tcpGroup(t, shards, codec)
					locals := make([]*core.SparseDelta, shards)
					for r := range locals {
						locals[r] = randomRecords(rand.New(rand.NewSource(int64(r))), codec, 3)
					}
					locals[badRank].Layers[1].Delta[5] = bad
					if _, err := core.MergeDeltas(nil, locals); err == nil || !strings.Contains(err.Error(), "not finite") {
						t.Fatalf("MergeDeltas on the raw parts: %v, want the non-finite refusal", err)
					}
					if _, err := codec.DecodeDelta(nil, []byte(encodedMerge(t, codec, locals[badRank]))); err == nil || !strings.Contains(err.Error(), "layer 1: δ: non-finite") {
						t.Fatalf("DecodeDelta of the bad part: %v, want the non-finite refusal", err)
					}
					res := exchangeAll(exs, 0, locals)
					for rank, rr := range res {
						if rr.err == nil {
							t.Fatalf("rank %d applied a round whose rank %d part carries %v", rank, badRank, bad)
						}
					}
					// With two ranks the peer reads nothing but the bad frame,
					// so its refusal is the decode's. With three, a rank can
					// instead fail first on a link the refusing rank has cut.
					if peer := 1 - badRank; shards == 2 && !strings.Contains(res[peer].err.Error(), "non-finite") {
						t.Fatalf("rank %d: %v, want the decode's non-finite refusal", peer, res[peer].err)
					}
				})
			}
		}
	}
}

// TestTCPZeroAndEmptyDeltas: a round of deltas without records, and one
// of records whose δ are all zero, succeeds on every rank at 2 and 3
// shards with identical merges of every rank's records.
func TestTCPZeroAndEmptyDeltas(t *testing.T) {
	codec := factorKinds
	empty := func() *core.SparseDelta { return &core.SparseDelta{Layers: make([]core.LayerDelta, 3)} }
	zero := func() *core.SparseDelta {
		d := randomRecords(rand.New(rand.NewSource(3)), codec, 2)
		for li := range d.Layers {
			clear(d.Layers[li].Delta)
		}
		return d
	}
	for _, shards := range []int{2, 3} {
		for name, build := range map[string]func() *core.SparseDelta{"empty": empty, "zero": zero} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				exs := tcpGroup(t, shards, codec)
				locals := make([]*core.SparseDelta, shards)
				for r := range locals {
					locals[r] = build()
				}
				want, _ := locals[0].Records()
				for step := range int64(2) {
					res := exchangeAll(exs, step, locals)
					for rank, rr := range res {
						if rr.err != nil || rr.stopAll {
							t.Fatalf("step %d rank %d: stopAll %v, err %v", step, rank, rr.stopAll, rr.err)
						}
						if n, _ := rr.merged.Records(); n != shards*want {
							t.Fatalf("step %d rank %d: merged %d records, want %d", step, rank, n, shards*want)
						}
						if encodedMerge(t, codec, rr.merged) != encodedMerge(t, codec, res[0].merged) {
							t.Fatalf("step %d rank %d: merged differs from rank 0's", step, rank)
						}
					}
				}
			})
		}
	}
}

// TestRawLocalMergeMatchesDecoded: a rank merges its own delta raw and
// its peers' decoded. For random records of a real network — -0 and
// zero values included — MergeDeltas(raw local, decoded peer) is
// MergeDeltas(decoded local, decoded peer) byte for byte, from either
// rank's side, and applying either moves the weights alike.
func TestRawLocalMergeMatchesDecoded(t *testing.T) {
	wide := core.Config{ // a sampled first layer: column-union rows
		InputDim: testFeatureDim, Seed: 5, Adam: optim.NewAdam(1e-3),
		Layers: []core.LayerConfig{
			{Size: 24, Activation: core.ActReLU, Sampled: true, Hash: lsh.KindSimhash, K: 3, L: 4, Strategy: sampling.KindVanilla, Beta: 8},
			{Size: 13, Activation: core.ActSoftmax},
		},
	}
	narrow := core.Config{ // an input-major first layer
		InputDim: 37, Seed: 5, Adam: optim.NewAdam(1e-3),
		Layers: []core.LayerConfig{{Size: 11, Activation: core.ActReLU}, {Size: 9, Activation: core.ActSoftmax}},
	}
	for name, cfg := range map[string]core.Config{"sampled first layer": wide, "input-major first layer": narrow} {
		t.Run(name, func(t *testing.T) {
			base, err := core.NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			codec := NewCodec(base)
			r := rand.New(rand.NewSource(41))
			for trial := range 40 {
				local, peer := randomRecords(r, codec, 1+r.Intn(6)), randomRecords(r, codec, r.Intn(6))
				decLocal, decPeer := roundTrip(t, codec, local), roundTrip(t, codec, peer)
				for side, order := range [][2]int{{0, 1}, {1, 0}} {
					raw := [2]*core.SparseDelta{local, decPeer}
					dec := [2]*core.SparseDelta{decLocal, decPeer}
					mRaw, errRaw := core.MergeDeltas(nil, []*core.SparseDelta{raw[order[0]], raw[order[1]]})
					mDec, errDec := core.MergeDeltas(nil, []*core.SparseDelta{dec[order[0]], dec[order[1]]})
					if errRaw != nil || errDec != nil || encodedMerge(t, codec, mRaw) != encodedMerge(t, codec, mDec) {
						t.Fatalf("trial %d, local at rank %d: raw and decoded merges differ (%v, %v)", trial, side, errRaw, errDec)
					}
					got := stepClone(t, cfg, base, []*core.SparseDelta{raw[order[0]], raw[order[1]]})
					want := stepClone(t, cfg, base, []*core.SparseDelta{dec[order[0]], dec[order[1]]})
					requireNetsBitIdentical(t, got, want, fmt.Sprintf("trial %d, local at rank %d", trial, side))
				}
			}
		})
	}
}

// roundTrip returns d encoded and decoded by codec.
func roundTrip(t *testing.T, codec *Codec, d *core.SparseDelta) *core.SparseDelta {
	t.Helper()
	buf, err := codec.AppendDelta(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	out, err := codec.DecodeDelta(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// stepClone builds a fresh network of cfg, which must match base, applies
// the merge of parts and returns it.
func stepClone(t *testing.T, cfg core.Config, base *core.Network, parts []*core.SparseDelta) *core.Network {
	t.Helper()
	net, err := core.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireNetsBitIdentical(t, base, net, "fresh networks of one seed")
	merged, err := core.MergeDeltas(nil, parts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.ApplyDelta(merged, cfg.Adam.Alpha(1), 0.5, 1); err != nil {
		t.Fatal(err)
	}
	return net
}
