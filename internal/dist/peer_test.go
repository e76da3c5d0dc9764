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
// workload over a TCP group wired by hand, with and without overlap.
// Three-part float sums depend on their order, so the recorded hash on
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
	const rows, width = 4096, 1024 // 16 MiB of nonzero fp32 per frame
	codec := testCodec([2]int32{rows, width})
	local := &core.SparseDelta{Layers: []core.LayerDelta{{Rows: make([]int32, rows), Vals: make([]float32, rows*width)}}}
	for r := range local.Layers[0].Rows {
		local.Layers[0].Rows[r] = int32(r)
	}
	for i := range local.Layers[0].Vals {
		local.Layers[0].Vals[i] = float32(i%7 + 1)
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
					if got := rr.merged.Layers[0].Vals[width+1]; got != float32(shards)*local.Layers[0].Vals[width+1] {
						t.Fatalf("rank %d merged cell %v, want %d parts of %v", rank, got, shards, local.Layers[0].Vals[width+1])
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatal("round with frames larger than the socket buffers still blocked after 10s")
			}
		})
	}
}

// TestMergeOverflowRefusedEverywhere: two finite parts whose sum overflows
// to ±Inf are refused by every rank at 2 and 3 shards, where each rank
// merges for itself.
func TestMergeOverflowRefusedEverywhere(t *testing.T) {
	dims := [][2]int32{{8, 16}}
	codec := testCodec(dims...)
	part := func(v float32) *core.SparseDelta {
		vals := make([]float32, 16)
		vals[3] = v
		return &core.SparseDelta{Layers: []core.LayerDelta{{Rows: []int32{2}, Vals: vals}}}
	}
	for _, tc := range []struct {
		name   string
		shards int
		locals []*core.SparseDelta
	}{
		{"tcp2 +Inf", 2, []*core.SparseDelta{part(math.MaxFloat32), part(math.MaxFloat32)}},
		{"tcp2 -Inf", 2, []*core.SparseDelta{part(-math.MaxFloat32), part(-math.MaxFloat32)}},
		{"tcp3 +Inf", 3, []*core.SparseDelta{part(math.MaxFloat32), part(1), part(math.MaxFloat32)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exs := tcpGroup(t, tc.shards, codec)
			for rank, rr := range exchangeAll(exs, 0, tc.locals) {
				if rr.err == nil || !strings.Contains(rr.err.Error(), "not finite") {
					t.Fatalf("rank %d: merged %v, err %v; want the non-finite refusal", rank, rr.merged, rr.err)
				}
			}
		})
	}
}

// TestTCPZeroAndEmptyDeltas: a round of all-empty deltas, and one of rows
// and biases that are all zero, succeeds on every rank at 2 and 3 shards
// with identical merges that carry no cell.
func TestTCPZeroAndEmptyDeltas(t *testing.T) {
	dims := [][2]int32{{8, 16}, {4, 8}}
	codec := testCodec(dims...)
	empty := func() *core.SparseDelta { return &core.SparseDelta{Layers: make([]core.LayerDelta, 2)} }
	zero := func() *core.SparseDelta {
		return &core.SparseDelta{Layers: []core.LayerDelta{
			{Rows: []int32{1, 5}, Vals: make([]float32, 32), Neurons: []int32{0, 7}, Bias: []float32{0, float32(math.Copysign(0, -1))}},
			{Rows: []int32{3}, Vals: make([]float32, 8), Neurons: []int32{2}, Bias: []float32{0}},
		}}
	}
	for _, shards := range []int{2, 3} {
		for name, build := range map[string]func() *core.SparseDelta{"empty": empty, "zero": zero} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				exs := tcpGroup(t, shards, codec)
				locals := make([]*core.SparseDelta, shards)
				for r := range locals {
					locals[r] = build()
				}
				for step := range int64(2) {
					res := exchangeAll(exs, step, locals)
					for rank, rr := range res {
						if rr.err != nil || rr.stopAll {
							t.Fatalf("step %d rank %d: stopAll %v, err %v", step, rank, rr.stopAll, rr.err)
						}
						if cells := rr.merged.Cells(); cells != 0 {
							t.Fatalf("step %d rank %d: merged %d cells, want 0", step, rank, cells)
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
// its peers' decoded. For the codec property test's deltas — every row
// kind, -0 cells, all-zero rows — plus cells where the two parts cancel
// to zero, applying MergeDeltas(raw local, decoded peer) moves the
// weights exactly as MergeDeltas(decoded local, decoded peer) does, from
// either rank's side. The moments are compared through two further
// steps over every cell, whose weight updates read them.
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
				local := randomRows(r, codec.shapes, map[int]bool{0: cfg.Layers[0].Sampled})
				peer := randomRows(r, codec.shapes, map[int]bool{0: cfg.Layers[0].Sampled})
				cancelSomeCells(r, local, peer)
				decLocal, decPeer := roundTrip(t, codec, local), roundTrip(t, codec, peer)
				for side, order := range [][2]int{{0, 1}, {1, 0}} {
					raw := [2]*core.SparseDelta{local, decPeer}
					dec := [2]*core.SparseDelta{decLocal, decPeer}
					got := stepClone(t, cfg, base, []*core.SparseDelta{raw[order[0]], raw[order[1]]})
					want := stepClone(t, cfg, base, []*core.SparseDelta{dec[order[0]], dec[order[1]]})
					requireNetsBitIdentical(t, got, want, fmt.Sprintf("trial %d, local at rank %d", trial, side))
				}
			}
		})
	}
}

// cancelSomeCells makes some of peer's cells the negation of local's
// where both carry the same row and column, so the pair sums to zero.
func cancelSomeCells(r *rand.Rand, local, peer *core.SparseDelta) {
	for li := range local.Layers {
		a, b := &local.Layers[li], &peer.Layers[li]
		if (a.Cols == nil) != (b.Cols == nil) || len(a.Cols) != len(b.Cols) {
			continue
		}
		copy(b.Cols, a.Cols) // same column set, so cells line up
		w := len(a.Cols)
		if a.Cols == nil && len(a.Rows) > 0 {
			w = len(a.Vals) / len(a.Rows)
		}
		for i, row := range a.Rows {
			for k, prow := range b.Rows {
				if prow == row {
					for c := range w {
						if r.Intn(3) == 0 {
							b.Vals[k*w+c] = -a.Vals[i*w+c]
						}
					}
				}
			}
		}
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

// stepClone copies base's weights into a fresh network of cfg, applies the
// merge of parts, and then two steps over every cell — whose updates read
// the moments the merge left — and returns it.
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
	alpha := cfg.Adam.Alpha(1)
	if _, err := net.ApplyDelta(merged, alpha, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	for step, g := range []float32{1, -0.25} {
		full := &core.SparseDelta{Layers: make([]core.LayerDelta, net.NumLayers())}
		for li := range full.Layers {
			rows, width := net.Layer(li).StorageShape()
			ld := &full.Layers[li]
			for row := range rows {
				ld.Rows = append(ld.Rows, int32(row))
			}
			for range rows * width {
				ld.Vals = append(ld.Vals, g)
			}
			for j := range net.Layer(li).Out() {
				ld.Neurons = append(ld.Neurons, int32(j))
				ld.Bias = append(ld.Bias, g)
			}
		}
		if _, err := net.ApplyDelta(full, cfg.Adam.Alpha(int64(step+2)), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	return net
}
