package core

import (
	"math"
	"sort"
	"testing"
)

func TestParseCompression(t *testing.T) {
	cases := []struct {
		in   string
		mode DeltaCompression
		frac float64
		ok   bool
	}{
		{"", CompressFP32, 0, true},
		{"fp32", CompressFP32, 0, true},
		{"bf16", CompressBF16, 0, true},
		{"topk:0.1", CompressTopK, 0.1, true},
		{"topk:1", CompressTopK, 1, true},
		{"topk:0", 0, 0, false},
		{"topk:1.5", 0, 0, false},
		{"topk:", 0, 0, false},
		{"topk", 0, 0, false},
		{"gzip", 0, 0, false},
	}
	for _, c := range cases {
		mode, frac, err := ParseCompression(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParseCompression(%q): err = %v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && (mode != c.mode || frac != c.frac) {
			t.Fatalf("ParseCompression(%q) = (%v, %g), want (%v, %g)", c.in, mode, frac, c.mode, c.frac)
		}
	}
	for _, mode := range []DeltaCompression{CompressFP32, CompressBF16, CompressTopK} {
		if _, _, err := ParseCompression(mode.String()); mode != CompressTopK && err != nil {
			t.Fatalf("String/Parse round trip broke for %v: %v", mode, err)
		}
	}
}

// topkTestLayer builds one layer's delta with a known magnitude ranking.
func topkTestLayer() LayerDelta {
	return LayerDelta{
		Rows:   []int32{2, 5, 9},
		RowOff: []int32{0, 3, 5, 8},
		Cols:   []int32{0, 4, 7, 1, 3, 0, 2, 6},
		Vals:   []float32{-8, 0.5, 2, -2, 0, 7, -0.25, 1},
		Bias:   []float32{0.125, 0, -1},
	}
}

// TestSelectTopKSplitsByMagnitude: the kept set is exactly the k
// largest-|v| cells, dropped cells stay in the accumulator with no bias
// mass, and ship+residual together reconstruct every non-zero cell of
// the source.
func TestSelectTopKSplitsByMagnitude(t *testing.T) {
	src := topkTestLayer()
	var ship LayerDelta
	var res efLayer
	// nnz = 8 (one exact zero among them), k = 4. The zero cell carries
	// no mass, so 4 ship and 3 stay in the residual.
	topKSelectLayer(&src, &res, 10, 8, 4, &ship, nil)

	type cell struct {
		row, col int32
		val      float32
	}
	collect := func(ld *LayerDelta) []cell {
		var out []cell
		for r := range ld.Rows {
			for c := ld.RowOff[r]; c < ld.RowOff[r+1]; c++ {
				out = append(out, cell{ld.Rows[r], ld.Cols[c], ld.Vals[c]})
			}
		}
		return out
	}
	collectRes := func(res *efLayer) []cell {
		var out []cell
		for r, row := range res.rows {
			for c, v := range row {
				if v != 0 {
					out = append(out, cell{int32(r), int32(c), v})
				}
			}
		}
		return out
	}
	shipped, dropped := collect(&ship), collectRes(&res)
	if len(shipped) != 4 {
		t.Fatalf("shipped %d cells, want k=4: %+v", len(shipped), shipped)
	}
	if len(dropped) != 3 {
		t.Fatalf("residual has %d cells, want 3: %+v", len(dropped), dropped)
	}
	// The 4 largest magnitudes are 8, 7, 2, 2.
	var mags []float64
	for _, c := range shipped {
		mags = append(mags, math.Abs(float64(c.val)))
	}
	sort.Float64s(mags)
	want := []float64{2, 2, 7, 8}
	for i := range want {
		if mags[i] != want[i] {
			t.Fatalf("shipped magnitudes %v, want %v", mags, want)
		}
	}
	// Every non-zero source cell appears exactly once across the split.
	seen := map[[2]int32]float32{}
	for _, c := range append(shipped, dropped...) {
		key := [2]int32{c.row, c.col}
		if _, dup := seen[key]; dup {
			t.Fatalf("cell %v appears in both ship and next", key)
		}
		seen[key] = c.val
	}
	for r := range src.Rows {
		for c := src.RowOff[r]; c < src.RowOff[r+1]; c++ {
			if src.Vals[c] == 0 {
				continue
			}
			if v, ok := seen[[2]int32{src.Rows[r], src.Cols[c]}]; !ok || v != src.Vals[c] {
				t.Fatalf("source cell (%d,%d)=%g lost in the split", src.Rows[r], src.Cols[c], src.Vals[c])
			}
		}
	}
	// Biases: always ship (row 5 has no kept cells but bias 0 → no row;
	// row 9's bias -1 ships).
	for r := range ship.Rows {
		var want float32
		for sr := range src.Rows {
			if src.Rows[sr] == ship.Rows[r] {
				want = src.Bias[sr]
			}
		}
		if ship.Bias[r] != want {
			t.Fatalf("ship row %d bias %g, want %g", ship.Rows[r], ship.Bias[r], want)
		}
	}
	// CSR invariants on the shipped delta.
	if len(ship.RowOff) != len(ship.Rows)+1 || len(ship.Bias) != len(ship.Rows) {
		t.Fatalf("inconsistent CSR: %d rows, %d offsets, %d biases", len(ship.Rows), len(ship.RowOff), len(ship.Bias))
	}
	for r := 1; r < len(ship.Rows); r++ {
		if ship.Rows[r] <= ship.Rows[r-1] {
			t.Fatal("rows not ascending")
		}
	}

	// A later, smaller batch: k tracks the fresh delta, not the grown
	// accumulator — 2 fresh cells at k=1 ship exactly 1 cell even though
	// the residual still holds 3 competing entries.
	src2 := LayerDelta{
		Rows:   []int32{5},
		RowOff: []int32{0, 2},
		Cols:   []int32{5, 6},
		Vals:   []float32{9, 0.0625},
		Bias:   []float32{0.5},
	}
	topKSelectLayer(&src2, &res, 10, 8, 1, &ship, nil)
	if got := len(ship.Vals); got != 1 {
		t.Fatalf("second batch shipped %d cells at k=1, want 1", got)
	}
	if ship.Vals[0] != 9 {
		t.Fatalf("second batch shipped %g, want the largest cell 9", ship.Vals[0])
	}
	if got := len(collectRes(&res)); got != 4 {
		t.Fatalf("residual holds %d cells after second batch, want 3 carried + 1 new", got)
	}
}

// TestSelectTopKTieBreaking: with every magnitude equal, exactly k cells
// ship — the quota resolves threshold ties in scan order instead of
// keeping all or none.
func TestSelectTopKTieBreaking(t *testing.T) {
	src := LayerDelta{
		Rows:   []int32{0},
		RowOff: []int32{0, 10},
		Cols:   []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		Vals:   []float32{1, -1, 1, 1, -1, 1, -1, 1, 1, -1},
		Bias:   []float32{0},
	}
	var ship LayerDelta
	var res efLayer
	topKSelectLayer(&src, &res, 1, 10, 3, &ship, nil)
	if got := len(ship.Vals); got != 3 {
		t.Fatalf("shipped %d of 10 tied cells at k=3, want exactly 3", got)
	}
	// Scan order: the first three cells win the quota.
	for i, want := range []int32{0, 1, 2} {
		if ship.Cols[i] != want {
			t.Fatalf("ship cols %v, want ties kept in scan order [0 1 2]", ship.Cols[:3])
		}
	}
	var left int
	for _, v := range res.rows[0] {
		if v != 0 {
			left++
		}
	}
	if left != 7 {
		t.Fatalf("residual has %d cells, want 7", left)
	}
}

// trainLoopbackTC trains a fresh network on the delta-test task with the
// echo exchanger and returns it. Runs are bitwise comparable.
func trainLoopbackTC(t *testing.T, mutate func(*TrainConfig)) (*Network, *TrainResult) {
	t.Helper()
	const classes = 128
	ds := deltaTestDataset(t, classes)
	n := mustNet(t, deltaTestConfig(classes))
	tc := TrainConfig{
		BatchSize: 32, Iterations: 24, Threads: 1, EvalEvery: 0, Seed: 9,
		Shards: 1, Exchanger: loopback{},
	}
	if mutate != nil {
		mutate(&tc)
	}
	res, err := n.Train(ds.Train, ds.Test, tc)
	if err != nil {
		t.Fatal(err)
	}
	return n, res
}

// TestTopKFullFractionMatchesFP32: at frac 1.0 top-k selection keeps
// every cell, so training is bit-identical to the uncompressed path and
// the error-feedback residual never accumulates anything.
func TestTopKFullFractionMatchesFP32(t *testing.T) {
	plain, _ := trainLoopbackTC(t, nil)
	topk, _ := trainLoopbackTC(t, func(tc *TrainConfig) {
		tc.Compress = CompressTopK
		tc.TopKFrac = 1.0
	})
	requireNetsBitIdentical(t, plain, topk, "topk:1.0 vs fp32")
	if r := topk.residualCells(); r != 0 {
		t.Fatalf("error-feedback residual holds %d cells at frac 1.0, want 0", r)
	}
}

// TestTopKResidualConservesGradientMass: with frac < 1 the residual is
// non-empty mid-run, and shipped + residual reconstructs the folded
// gradient exactly — error feedback delays mass, never loses it.
func TestTopKResidualConservesGradientMass(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	n := mustNet(t, deltaTestConfig(classes))
	st := mustState(t, n, 5)

	var residualSeen bool
	for b := 0; b < 4; b++ {
		runManualBatch(n, st, ds.Train[b*16:(b+1)*16])
		d := n.ExtractDelta(nil, 2)
		// The folded gradient the selection splits: batch delta + residual
		// carried in from previous batches.
		var folded *SparseDelta
		if n.residualCells() > 0 {
			var err error
			folded, err = MergeDeltas(nil, []*SparseDelta{d.Clone(), n.residualDelta()})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			folded = d.Clone()
		}
		ship := n.compressTopK(d, 0.25)
		if n.residualCells() > 0 {
			residualSeen = true
		}
		recon, err := MergeDeltas(nil, []*SparseDelta{ship, n.residualDelta()})
		if err != nil {
			t.Fatal(err)
		}
		got, want := deltaAsMap(recon), deltaAsMap(folded)
		for k, wv := range want {
			if wv == 0 {
				continue // exact-zero cells are discarded, not residualized
			}
			if gv := got[k]; gv != wv {
				t.Fatalf("batch %d: cell %v = %g after split, want %g", b, k, gv, wv)
			}
		}
		if shipped := ship.Cells(); shipped == 0 {
			t.Fatalf("batch %d shipped nothing at frac 0.25", b)
		}
	}
	if !residualSeen {
		t.Fatal("residual never accumulated at frac 0.25; test is vacuous")
	}
}

// TestOverlapAsyncMatchesJoined pins the overlap pipeline's asynchrony as
// pure mechanism: running the exchange on a background goroutine must
// leave weights bit-identical to running it inline at launch (same
// pipelined apply points, zero concurrency). Checked for fp32 and for
// topk with error feedback.
func TestOverlapAsyncMatchesJoined(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*TrainConfig)
	}{
		{"fp32", func(tc *TrainConfig) { tc.OverlapExchange = true }},
		{"topk", func(tc *TrainConfig) {
			tc.OverlapExchange = true
			tc.Compress = CompressTopK
			tc.TopKFrac = 0.5
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			async, resAsync := trainLoopbackTC(t, v.mutate)
			testOverlapSyncJoin = true
			defer func() { testOverlapSyncJoin = false }()
			joined, _ := trainLoopbackTC(t, v.mutate)
			requireNetsBitIdentical(t, async, joined, "async vs joined overlap")
			if resAsync.ExchangeNS < 0 || resAsync.ExchangeHiddenNS < 0 {
				t.Fatalf("negative exchange accounting: blocked %d, hidden %d",
					resAsync.ExchangeNS, resAsync.ExchangeHiddenNS)
			}
		})
	}
}

// TestOverlapAppliesEveryDelta: an overlapped run must finish with the
// in-flight exchange settled — same number of applied merged deltas as a
// synchronous run — even though applies trail extraction by one batch.
// The echo exchanger counts its rounds to prove none were dropped.
func TestOverlapAppliesEveryDelta(t *testing.T) {
	count := &countingLoopback{}
	_, res := trainLoopbackTC(t, func(tc *TrainConfig) {
		tc.OverlapExchange = true
		tc.Exchanger = count
	})
	if count.rounds != res.Iterations {
		t.Fatalf("exchanged %d rounds over %d iterations", count.rounds, res.Iterations)
	}
	if res.Iterations != 24 {
		t.Fatalf("ran %d iterations, want 24", res.Iterations)
	}
}

type countingLoopback struct{ rounds int64 }

func (c *countingLoopback) Exchange(_ int64, local *SparseDelta, stop bool) (*SparseDelta, bool, error) {
	c.rounds++
	return local, stop, nil
}

// TestTrainRejectsBadCompression: out-of-range compression modes and
// fractions fail fast instead of training with a silently wrong config.
func TestTrainRejectsBadCompression(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	n := mustNet(t, deltaTestConfig(classes))
	tc := TrainConfig{BatchSize: 16, Iterations: 1, Threads: 1, Seed: 1, Compress: DeltaCompression(99)}
	if _, err := n.Train(ds.Train, nil, tc); err == nil {
		t.Fatal("trained with an unknown compression mode")
	}
	tc.Compress = CompressTopK
	tc.TopKFrac = 0
	if _, err := n.Train(ds.Train, nil, tc); err == nil {
		t.Fatal("trained with TopKFrac = 0")
	}
}
