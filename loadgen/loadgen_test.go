package loadgen_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	slide "repro"
	"repro/loadgen"
	"repro/serve"
)

// TestRunAgainstServer drives a short open-loop run against an in-process
// server through the public surfaces of both, and brackets it with /stats
// snapshots the way slide-load reports server-side GC work.
func TestRunAgainstServer(t *testing.T) {
	net, err := slide.New(slide.Config{
		InputDim: 64,
		Seed:     11,
		Layers: []slide.LayerConfig{
			{Size: 32, Activation: slide.ActReLU},
			{
				Size: 256, Activation: slide.ActSoftmax,
				Sampled: true, Hash: slide.HashSimhash, K: 4, L: 8,
				Strategy: slide.StrategyVanilla, Beta: 48,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(net, serve.Options{BatchWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	keys := make([]slide.Vector, 8)
	for i := range keys {
		k, err := slide.NewVector(64, []int32{int32(i), int32(i + 20), int32(i + 40)}, []float32{1, 0.5, 0.25})
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	before, err := loadgen.FetchStats(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:  ts.URL,
		QPS:      200,
		Duration: 300 * time.Millisecond,
		Mix:      loadgen.Mix{Exact: 0.5, Sampled: 0.2, Seeded: 0.2, Batch: 0.1},
		Keys:     keys,
		K:        3,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.OK == 0 || res.Errors > 0 {
		t.Fatalf("run against a healthy server: %+v", res)
	}
	after, err := loadgen.FetchStats(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if after.Requests <= before.Requests {
		t.Fatalf("server requests %d -> %d across the run", before.Requests, after.Requests)
	}
	if d := loadgen.GCDeltaBetween(before, after); d.AllocsPerRequest <= 0 {
		t.Fatalf("GC delta over the run: %+v", d)
	}
}
