package core

import "testing"

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

// TestOverlapAsyncMatchesJoined pins the overlap pipeline's asynchrony as
// pure mechanism: running the exchange on a background goroutine must
// leave weights bit-identical to running it inline at launch (same
// pipelined apply points, zero concurrency).
func TestOverlapAsyncMatchesJoined(t *testing.T) {
	overlap := func(tc *TrainConfig) { tc.OverlapExchange = true }
	async, resAsync := trainLoopbackTC(t, overlap)
	testOverlapSyncJoin = true
	defer func() { testOverlapSyncJoin = false }()
	joined, _ := trainLoopbackTC(t, overlap)
	requireNetsBitIdentical(t, async, joined, "async vs joined overlap")
	if resAsync.ExchangeNS < 0 || resAsync.ExchangeHiddenNS < 0 {
		t.Fatalf("negative exchange accounting: blocked %d, hidden %d",
			resAsync.ExchangeNS, resAsync.ExchangeHiddenNS)
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
