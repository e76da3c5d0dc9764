package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lsh"
	"repro/internal/sampling"
	"repro/internal/sparse"
)

// testConfig is the small sampled-softmax network every serving test
// runs on.
func testConfig(seed uint64) core.Config {
	return core.Config{
		InputDim: 64,
		Seed:     seed,
		Layers: []core.LayerConfig{
			{Size: 32, Activation: core.ActReLU},
			{
				Size: 256, Activation: core.ActSoftmax,
				Sampled: true, Hash: lsh.KindSimhash, K: 4, L: 8,
				Strategy: sampling.KindVanilla, Beta: 48,
			},
		},
	}
}

// testModel builds a small sampled-softmax network, round-trips it
// through the self-describing model format, and returns the loaded copy —
// exactly the path slide-serve takes from a slide-train -save file.
func testModel(t *testing.T) *core.Network {
	t.Helper()
	net, err := core.NewNetwork(testConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func startServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	s, err := New(testModel(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postPredict(t *testing.T, url string, body string) (int, predictResponse) {
	t.Helper()
	code, pr, err := tryPostPredict(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, pr
}

// tryPostPredict is postPredict without t.Fatal, safe to call from
// client goroutines (FailNow must not run off the test goroutine).
func tryPostPredict(url string, body string) (int, predictResponse, error) {
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, predictResponse{}, err
	}
	defer resp.Body.Close()
	var pr predictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			return resp.StatusCode, predictResponse{}, err
		}
	}
	return resp.StatusCode, pr, nil
}

func TestPredictExactAndSampled(t *testing.T) {
	ts := startServer(t, Options{BatchWindow: time.Millisecond})
	for _, mode := range []struct {
		sampled bool
		want    string
	}{{false, "exact"}, {true, "sampled"}} {
		body := fmt.Sprintf(`{"indices":[1,7,33],"values":[1.0,0.5,2.0],"k":3,"sampled":%v}`, mode.sampled)
		code, pr := postPredict(t, ts.URL, body)
		if code != http.StatusOK {
			t.Fatalf("mode %s: status %d", mode.want, code)
		}
		if pr.Mode != mode.want {
			t.Fatalf("mode = %q, want %q", pr.Mode, mode.want)
		}
		if len(pr.IDs) != 3 || len(pr.Scores) != 3 {
			t.Fatalf("mode %s: got %d ids / %d scores, want 3", mode.want, len(pr.IDs), len(pr.Scores))
		}
		for i := 1; i < len(pr.Scores); i++ {
			if pr.Scores[i] > pr.Scores[i-1] {
				t.Fatalf("mode %s: scores not descending: %v", mode.want, pr.Scores)
			}
		}
	}
}

func TestPredictDirectPathWithoutBatching(t *testing.T) {
	ts := startServer(t, Options{BatchWindow: 0})
	code, pr := postPredict(t, ts.URL, `{"indices":[2,5],"values":[1,1],"k":4}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(pr.IDs) != 4 || pr.BatchSize != 1 {
		t.Fatalf("got %d ids, batch %d; want 4 ids, batch 1", len(pr.IDs), pr.BatchSize)
	}
}

// padBody widens a JSON object body to exactly n bytes with whitespace
// before its closing brace, so the object only ends at byte n.
func padBody(body string, n int) string {
	return body[:len(body)-1] + strings.Repeat(" ", n-len(body)) + "}"
}

// TestPredictValidation pins the /predict wire contract through the
// handler: what is rejected with 400, and what encoding/json semantics
// clients may rely on (unknown fields skipped, null as the zero value,
// the last duplicate key winning, trailing bytes ignored, the body cap
// exact to the byte). Every 200 body re-encodes to itself.
func TestPredictValidation(t *testing.T) {
	const maxBody = 256
	ts := startServer(t, Options{BatchWindow: time.Millisecond, MaxBodyBytes: maxBody, CacheSize: 16})
	for _, tc := range []struct {
		name, body string
		code       int
		// For 200s: the number of ids, the mode, and X-Cache ("" for an
		// uncacheable request, i.e. unseeded sampled).
		ids   int
		mode  string
		cache string
	}{
		{name: "mismatched", body: `{"indices":[1,2],"values":[1.0]}`, code: 400},
		{name: "empty", body: `{"indices":[],"values":[]}`, code: 400},
		{name: "out of range", body: `{"indices":[9999],"values":[1.0]}`, code: 400},
		{name: "not json", body: `nope`, code: 400},
		{name: "negative deadline", body: `{"indices":[1],"values":[1.0],"deadline_ms":-5}`, code: 400},
		{name: "fractional k", body: `{"indices":[1],"values":[1],"k":2.5}`, code: 400},
		{name: "fractional index", body: `{"indices":[1.5],"values":[1]}`, code: 400},
		{name: "negative seed", body: `{"indices":[1],"values":[1],"sampled":true,"seed":-1}`, code: 400},
		{name: "empty body", body: ``, code: 400},
		{name: "non-object body", body: `[1,2]`, code: 400},
		{name: "one byte over the cap", body: padBody(`{"indices":[1],"values":[1]}`, maxBody+1), code: 400},
		{name: "unknown nested field", body: `{"indices":[1],"values":[1],"extra":{"a":[1,{"b":null}],"s":"}"},"k":2}`,
			code: 200, ids: 2, mode: "exact", cache: "miss"},
		{name: "null scalars", body: `{"indices":[2],"values":[1],"k":null,"sampled":null,"seed":null,"deadline_ms":null}`,
			code: 200, ids: 5, mode: "exact", cache: "miss"},
		{name: "null seed is unseeded", body: `{"indices":[3],"values":[1],"sampled":true,"seed":null}`,
			code: 200, ids: 5, mode: "sampled"},
		{name: "duplicate key, last wins", body: `{"indices":[4],"values":[1],"k":2,"k":4}`,
			code: 200, ids: 4, mode: "exact", cache: "miss"},
		{name: "trailing bytes", body: `{"indices":[5],"values":[1],"k":3} trailing`,
			code: 200, ids: 3, mode: "exact", cache: "miss"},
		{name: "exactly at the cap", body: padBody(`{"indices":[6],"values":[1]}`, maxBody),
			code: 200, ids: 5, mode: "exact", cache: "miss"},
	} {
		code, hdr, raw := postRaw(t, ts.URL, tc.body)
		if code != tc.code {
			t.Errorf("%s: status %d (body %s), want %d", tc.name, code, raw, tc.code)
			continue
		}
		if code != http.StatusOK {
			continue
		}
		var pr predictResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(pr.IDs) != tc.ids || len(pr.Scores) != tc.ids || pr.Mode != tc.mode {
			t.Errorf("%s: %d ids, %d scores, mode %q; want %d, %q", tc.name, len(pr.IDs), len(pr.Scores), pr.Mode, tc.ids, tc.mode)
		}
		if got := hdr.Get("X-Cache"); got != tc.cache {
			t.Errorf("%s: X-Cache %q, want %q", tc.name, got, tc.cache)
		}
		if again, err := encodeJSON(pr); err != nil || !bytes.Equal(again, raw) {
			t.Errorf("%s: body does not re-encode to itself (%v):\n%s\n%s", tc.name, err, raw, again)
		}
	}
	// A malformed deadline header is a client error too.
	req, _ := http.NewRequest("POST", ts.URL+"/predict", bytes.NewReader([]byte(`{"indices":[1],"values":[1.0]}`)))
	req.Header.Set(deadlineHeader, "soon")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad deadline header: status %d, want 400", resp.StatusCode)
	}
}

// TestNonFiniteScoreIsServerError: a poisoned model whose scores are not
// finite gets a 500 (encoding/json refuses the body) rather than a 200
// with invented numbers, and the failure is never cached.
func TestNonFiniteScoreIsServerError(t *testing.T) {
	net := testModel(t)
	// The output layer is neuron-major, so Weights aliases its live
	// weights and this one write reaches every forward pass.
	net.Layer(net.NumLayers() - 1).Weights(0)[0] = float32(math.NaN())
	s, err := New(net, Options{BatchWindow: 0, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const body = `{"indices":[1,7,33],"values":[1.0,0.5,2.0],"k":5}`
	for i := 0; i < 2; i++ {
		code, hdr, raw := postRaw(t, ts.URL, body)
		if code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d (body %s), want 500", i, code, raw)
		}
		if got := hdr.Get("X-Cache"); got != "miss" {
			t.Fatalf("request %d: X-Cache %q, want miss", i, got)
		}
	}
}

// TestConcurrentPredictMicroBatches hammers the server with parallel
// requests in both modes and checks that micro-batching actually grouped
// some of them while every reply stays well-formed.
func TestConcurrentPredictMicroBatches(t *testing.T) {
	ts := startServer(t, Options{BatchWindow: 5 * time.Millisecond, BatchMax: 32})
	const clients = 24
	var wg sync.WaitGroup
	sawBatch := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"indices":[%d,%d],"values":[1.0,0.5],"k":2,"sampled":%v}`,
				c%64, (c*7)%64, c%2 == 0)
			code, pr := postPredict(t, ts.URL, body)
			if code != http.StatusOK {
				t.Errorf("client %d: status %d", c, code)
				return
			}
			if len(pr.IDs) != 2 {
				t.Errorf("client %d: %d ids", c, len(pr.IDs))
			}
			sawBatch[c] = pr.BatchSize
		}(c)
	}
	wg.Wait()
	maxBatch := 0
	for _, b := range sawBatch {
		if b > maxBatch {
			maxBatch = b
		}
	}
	if maxBatch < 2 {
		t.Logf("no request shared a micro-batch (max batch size %d) — timing-dependent, not fatal", maxBatch)
	}
}

// TestSeededPredictDeterministic is the end-to-end determinism proof:
// identical seeded sampled requests return identical bodies (modulo the
// latency field), across repeats, across concurrent mixed traffic, and
// across the batched and unbatched paths.
func TestSeededPredictDeterministic(t *testing.T) {
	ts := startServer(t, Options{BatchWindow: 2 * time.Millisecond, BatchMax: 32})
	const body = `{"indices":[1,7,33],"values":[1.0,0.5,2.0],"k":3,"sampled":true,"seed":12345}`

	normalize := func(pr predictResponse) predictResponse {
		pr.Millis = 0 // latency is the one legitimately nondeterministic field
		return pr
	}
	code, first := postPredict(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.Mode != "sampled" || first.BatchSize != 1 {
		t.Fatalf("seeded request reported mode %q batch %d, want sampled/1", first.Mode, first.BatchSize)
	}
	want := normalize(first)

	// Sequential repeats.
	for i := 0; i < 5; i++ {
		code, pr := postPredict(t, ts.URL, body)
		if code != http.StatusOK {
			t.Fatalf("repeat %d: status %d", i, code)
		}
		if !reflect.DeepEqual(normalize(pr), want) {
			t.Fatalf("repeat %d: seeded response diverged: %+v vs %+v", i, pr, want)
		}
	}

	// Concurrent repeats racing against unseeded mixed traffic, so the
	// seeded requests share micro-batch windows with arbitrary company.
	const clients = 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if c%2 == 0 {
				noise := fmt.Sprintf(`{"indices":[%d,%d],"values":[1.0,0.5],"k":2,"sampled":%v}`,
					c%64, (c*7)%64, c%3 == 0)
				postPredict(t, ts.URL, noise)
				return
			}
			code, pr := postPredict(t, ts.URL, body)
			if code != http.StatusOK {
				t.Errorf("client %d: status %d", c, code)
				return
			}
			if !reflect.DeepEqual(normalize(pr), want) {
				t.Errorf("client %d: seeded response diverged under load: %+v vs %+v", c, pr, want)
			}
		}(c)
	}
	wg.Wait()

	// A different seed steers the draw somewhere else (k=3 of 256 after
	// vanilla probing — a collision of all three ids and scores across
	// seeds would mean the seed is not reaching the sampler).
	code, other := postPredict(t, ts.URL,
		`{"indices":[1,7,33],"values":[1.0,0.5,2.0],"k":3,"sampled":true,"seed":54321}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if reflect.DeepEqual(normalize(other), want) {
		t.Log("seeds 12345 and 54321 coincided — suspicious but not impossible")
	}

	// The unbatched path gives the same answer as the batched path.
	direct := startServer(t, Options{BatchWindow: 0})
	code, pr := postPredict(t, direct.URL, body)
	if code != http.StatusOK {
		t.Fatalf("direct: status %d", code)
	}
	if !slices.Equal(pr.IDs, want.IDs) || !slices.Equal(pr.Scores, want.Scores) {
		t.Fatalf("unbatched seeded response %v/%v diverged from batched %v/%v",
			pr.IDs, pr.Scores, want.IDs, want.Scores)
	}

	// Seed on an exact request is accepted and harmless — exact inference
	// is deterministic with or without it.
	code, ex1 := postPredict(t, ts.URL, `{"indices":[1,7],"values":[1,1],"k":3,"seed":9}`)
	code2, ex2 := postPredict(t, ts.URL, `{"indices":[1,7],"values":[1,1],"k":3}`)
	if code != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("exact statuses %d/%d", code, code2)
	}
	if !slices.Equal(ex1.IDs, ex2.IDs) || !slices.Equal(ex1.Scores, ex2.Scores) {
		t.Fatalf("exact prediction changed under a seed field: %v vs %v", ex1.IDs, ex2.IDs)
	}
}

// TestRunBatchReportsGroupSize pins the /stats fan-out accounting: a
// micro-batch of mixed modes runs as one PredictBatch per mode, so each
// reply's batchSize is its mode group's size — and a seeded request, which
// runs alone, always reports 1.
func TestRunBatchReportsGroupSize(t *testing.T) {
	s, err := New(testModel(t), Options{BatchWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x, err := sparse.New(64, []int32{1, 2}, []float32{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(sampled, seeded bool) *pendingReq {
		return &pendingReq{eng: s.eng.Load(), x: x, k: 2, sampled: sampled, seeded: seeded, seed: 5,
			reply: make(chan batchReply, 1)}
	}
	// 3 exact + 2 sampled + 1 seeded in one gathered micro-batch.
	batch := []*pendingReq{mk(false, false), mk(false, false), mk(false, false),
		mk(true, false), mk(true, false), mk(true, true)}
	s.runBatch(batch)
	wantSizes := []int{3, 3, 3, 2, 2, 1}
	for i, r := range batch {
		rep := <-r.reply
		if rep.err != nil {
			t.Fatalf("request %d: %v", i, rep.err)
		}
		if rep.batchSize != wantSizes[i] {
			t.Errorf("request %d reported batch size %d, want %d", i, rep.batchSize, wantSizes[i])
		}
	}
}

// TestPercentileNearestRank pins percentile to the nearest-rank
// definition: index ceil(p*n)-1 into the sorted samples — including the
// P999 read the load harness depends on.
func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1) // 1..n, sorted
		}
		return s
	}
	for _, tc := range []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"single p50", seq(1), 0.50, 1},
		{"single p99", seq(1), 0.99, 1},
		{"two p50 is first", seq(2), 0.50, 1},
		{"two p51 is second", seq(2), 0.51, 2},
		{"two p99", seq(2), 0.99, 2},
		{"four p25", seq(4), 0.25, 1},
		{"four p50", seq(4), 0.50, 2},
		{"four p90", seq(4), 0.90, 4},
		{"hundred p50", seq(100), 0.50, 50},
		{"hundred p90", seq(100), 0.90, 90},
		{"hundred p99", seq(100), 0.99, 99},
		{"hundred p100", seq(100), 1.00, 100},
		{"p0 clamps to min", seq(10), 0, 1},
		{"empty returns zero", nil, 0.5, 0},
		// P999: below 1000 samples it reads the max; at and beyond 1000
		// it resolves a distinct rank.
		{"hundred p999 is max", seq(100), 0.999, 100},
		{"thousand p999", seq(1000), 0.999, 999},
		{"two thousand p999", seq(2000), 0.999, 1998},
		{"ring-sized p999", seq(4096), 0.999, 4092},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: percentile(n=%d, p=%v) = %v, want %v",
				tc.name, len(tc.sorted), tc.p, got, tc.want)
		}
	}
}

func TestHealthzAndStats(t *testing.T) {
	ts := startServer(t, Options{BatchWindow: time.Millisecond})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["classes"] != float64(256) {
		t.Fatalf("healthz = %v", health)
	}

	for i := 0; i < 5; i++ {
		if code, _ := postPredict(t, ts.URL, `{"indices":[3],"values":[1.0]}`); code != http.StatusOK {
			t.Fatalf("warmup request %d: status %d", i, code)
		}
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap statsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Requests != 5 {
		t.Fatalf("stats requests = %d, want 5", snap.Requests)
	}
	if snap.P50Millis < 0 || snap.P99Millis < snap.P50Millis || snap.P999Millis < snap.P99Millis {
		t.Fatalf("implausible percentiles: %+v", snap)
	}
	if snap.Shed != 0 || snap.DeadlineExceeded != 0 {
		t.Fatalf("counters moved without shedding/deadlines: %+v", snap)
	}
}

// modelFile saves a freshly built model with the given seed into dir and
// returns its path — the on-disk artifact /reload consumes.
func modelFile(t *testing.T, dir string, seed uint64) string {
	t.Helper()
	net, err := core.NewNetwork(testConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("model-%d.slide", seed))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SaveModel(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, m
}

// serverFromFile loads a model file and builds a Server over it — the
// slide-serve boot path.
func serverFromFile(t *testing.T, path string, opts Options) *Server {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.LoadModel(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	opts.ModelPath = path
	s, err := New(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestReloadSwapsEngineUnderLoad exercises the hot-reload satellite: the
// server swaps its whole Network+Predictor pair from a model file while
// concurrent /predict traffic is in flight, every response stays
// well-formed, and /healthz reflects the new model afterwards.
func TestReloadSwapsEngineUnderLoad(t *testing.T) {
	dir := t.TempDir()
	pathA := modelFile(t, dir, 21)
	pathB := modelFile(t, dir, 22)

	s := serverFromFile(t, pathA, Options{BatchWindow: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Concurrent clients keep predicting across the swap.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"indices":[%d,%d],"values":[1.0,0.5],"k":2,"sampled":%v}`,
					(c+i)%64, (c*7+i)%64, c%2 == 0)
				code, pr, err := tryPostPredict(ts.URL, body)
				if err != nil {
					t.Errorf("client %d: %v mid-reload", c, err)
					return
				}
				if code != http.StatusOK {
					t.Errorf("client %d: status %d mid-reload", c, code)
					return
				}
				if len(pr.IDs) != 2 {
					t.Errorf("client %d: %d ids mid-reload", c, len(pr.IDs))
					return
				}
			}
		}(c)
	}

	// Swap to model B by explicit path, then back to the default (-model)
	// path with an empty body, all under load.
	code, rep := postJSON(t, ts.URL+"/reload", fmt.Sprintf(`{"model":%q}`, pathB))
	if code != http.StatusOK {
		t.Fatalf("reload to B: status %d: %v", code, rep)
	}
	if rep["model"] != pathB {
		t.Fatalf("reload reported model %v, want %s", rep["model"], pathB)
	}
	code, rep = postJSON(t, ts.URL+"/reload", ``)
	if code != http.StatusOK {
		t.Fatalf("default-path reload: status %d: %v", code, rep)
	}
	if rep["model"] != pathA {
		t.Fatalf("default-path reload loaded %v, want %s", rep["model"], pathA)
	}
	close(stop)
	wg.Wait()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["model"] != pathA || health["reloads"] != float64(2) {
		t.Fatalf("healthz after reloads = %v", health)
	}

	// Error paths: missing file is a server-side failure, not a crash.
	code, _ = postJSON(t, ts.URL+"/reload", `{"model":"/nonexistent.slide"}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("reload of missing file: status %d, want 500", code)
	}
}

// TestReloadWithoutModelPath: a server started from an in-memory network
// (no -model) refuses a path-less reload instead of crashing.
func TestReloadWithoutModelPath(t *testing.T) {
	ts := startServer(t, Options{BatchWindow: 0})
	code, rep := postJSON(t, ts.URL+"/reload", ``)
	if code != http.StatusBadRequest {
		t.Fatalf("path-less reload: status %d (%v), want 400", code, rep)
	}
}

// TestPredictBatchEndpoint: the bulk endpoint returns one result per
// vector, matches the single-request exact path elementwise, and is
// deterministic under a seed in sampled mode.
func TestPredictBatchEndpoint(t *testing.T) {
	const maxBody = 256 // the batch cap is 16x
	ts := startServer(t, Options{BatchWindow: 0, MaxBodyBytes: maxBody})

	body := `{"batch":[
		{"indices":[1,7,33],"values":[1.0,0.5,2.0]},
		{"indices":[2,5],"values":[1.0,1.0]},
		{"indices":[60,61,62],"values":[0.5,0.5,0.5]}],"k":3}`
	code, rep := postJSON(t, ts.URL+"/predict/batch", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, rep)
	}
	if rep["mode"] != "exact" || rep["count"] != float64(3) {
		t.Fatalf("batch response header = %v", rep)
	}
	results := rep["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("%d results for 3 inputs", len(results))
	}
	// Element 0 must match the single-request exact path bit for bit.
	code, single := postPredict(t, ts.URL, `{"indices":[1,7,33],"values":[1.0,0.5,2.0],"k":3}`)
	if code != http.StatusOK {
		t.Fatalf("single: status %d", code)
	}
	first := results[0].(map[string]any)
	gotIDs := first["ids"].([]any)
	if len(gotIDs) != len(single.IDs) {
		t.Fatalf("batch[0] %d ids vs single %d", len(gotIDs), len(single.IDs))
	}
	for i, id := range gotIDs {
		if int32(id.(float64)) != single.IDs[i] {
			t.Fatalf("batch[0] ids %v diverge from single %v", gotIDs, single.IDs)
		}
	}

	// Seeded sampled batches are reproducible end to end.
	seeded := `{"batch":[
		{"indices":[1,7,33],"values":[1.0,0.5,2.0]},
		{"indices":[2,5],"values":[1.0,1.0]}],"k":3,"sampled":true,"seed":99}`
	code, repA := postJSON(t, ts.URL+"/predict/batch", seeded)
	codeB, repB := postJSON(t, ts.URL+"/predict/batch", seeded)
	if code != http.StatusOK || codeB != http.StatusOK {
		t.Fatalf("seeded batch statuses %d/%d", code, codeB)
	}
	if repA["mode"] != "sampled" {
		t.Fatalf("seeded batch mode = %v", repA["mode"])
	}
	if !reflect.DeepEqual(repA["results"], repB["results"]) {
		t.Fatalf("identical seeded batch requests diverged:\n%v\nvs\n%v", repA["results"], repB["results"])
	}

	// Validation and the wire contract /predict pins, over the batch body.
	const one = `{"batch":[{"indices":[1],"values":[1]}]}`
	for _, tc := range []struct {
		name, body string
		code       int
		ids        int    // 200s: ids in the one result
		mode       string // 200s
	}{
		{name: "empty batch", body: `{"batch":[]}`, code: 400},
		{name: "empty vector", body: `{"batch":[{"indices":[],"values":[]}]}`, code: 400},
		{name: "length mismatch", body: `{"batch":[{"indices":[1,2],"values":[1.0]}]}`, code: 400},
		{name: "out of range", body: `{"batch":[{"indices":[9999],"values":[1.0]}]}`, code: 400},
		{name: "fractional k", body: `{"batch":[{"indices":[1],"values":[1]}],"k":2.5}`, code: 400},
		{name: "fractional index", body: `{"batch":[{"indices":[1.5],"values":[1]}]}`, code: 400},
		{name: "negative seed", body: `{"batch":[{"indices":[1],"values":[1]}],"sampled":true,"seed":-1}`, code: 400},
		{name: "empty body", body: ``, code: 400},
		{name: "non-object body", body: `[1,2]`, code: 400},
		{name: "one byte over the cap", body: padBody(one, 16*maxBody+1), code: 400},
		{name: "unknown nested field", body: `{"batch":[{"indices":[1],"values":[1],"x":[[{}]]}],"meta":{"a":[1]},"k":2}`,
			code: 200, ids: 2, mode: "exact"},
		{name: "null scalars", body: `{"batch":[{"indices":[1],"values":[1]}],"k":null,"sampled":null,"seed":null}`,
			code: 200, ids: 5, mode: "exact"},
		{name: "duplicate key, last wins", body: `{"batch":[{"indices":[1],"values":[1]}],"k":2,"k":4}`,
			code: 200, ids: 4, mode: "exact"},
		{name: "trailing bytes", body: one + ` trailing`, code: 200, ids: 5, mode: "exact"},
		{name: "exactly at the cap", body: padBody(one, 16*maxBody), code: 200, ids: 5, mode: "exact"},
	} {
		code, rep := postJSON(t, ts.URL+"/predict/batch", tc.body)
		if code != tc.code {
			t.Errorf("%s: status %d (%v), want %d", tc.name, code, rep, tc.code)
			continue
		}
		if code != http.StatusOK {
			continue
		}
		results, _ := rep["results"].([]any)
		if rep["mode"] != tc.mode || rep["count"] != float64(1) || len(results) != 1 {
			t.Errorf("%s: response %v, want one %s result", tc.name, rep, tc.mode)
			continue
		}
		if ids, _ := results[0].(map[string]any)["ids"].([]any); len(ids) != tc.ids {
			t.Errorf("%s: %d ids, want %d", tc.name, len(ids), tc.ids)
		}
	}
}

// TestArrivalEstimatorWindow drives the estimator with synthetic
// timestamps and checks the window policy: unprimed keeps the fixed
// window, dense traffic sizes the window to fill a batch, sparse traffic
// collapses it to zero, and the result is always clamped to [0, max].
func TestArrivalEstimatorWindow(t *testing.T) {
	const max = 2 * time.Millisecond
	const batchMax = 8

	var e arrivalEstimator
	if got := e.window(max, batchMax); got != max {
		t.Fatalf("unprimed window = %v, want the fixed %v", got, max)
	}

	// Dense traffic: 50µs apart -> window ≈ 7 gaps ≈ 350µs, below max.
	base := time.Unix(0, 0)
	for i := 0; i < 50; i++ {
		e.observe(base.Add(time.Duration(i) * 50 * time.Microsecond))
	}
	w := e.window(max, batchMax)
	if w <= 0 || w >= max {
		t.Fatalf("dense-traffic window = %v, want in (0, %v)", w, max)
	}
	if w < 200*time.Microsecond || w > 600*time.Microsecond {
		t.Fatalf("dense-traffic window = %v, want ≈ 350µs", w)
	}

	// Moderate traffic whose fill time exceeds max: clamped to max.
	e = arrivalEstimator{}
	for i := 0; i < 50; i++ {
		e.observe(base.Add(time.Duration(i) * time.Millisecond))
	}
	if w := e.window(max, batchMax); w != max {
		t.Fatalf("moderate-traffic window = %v, want clamped to %v", w, max)
	}

	// Sparse traffic: gaps beyond max mean nobody joins in time.
	e = arrivalEstimator{}
	for i := 0; i < 10; i++ {
		e.observe(base.Add(time.Duration(i) * 100 * time.Millisecond))
	}
	if w := e.window(max, batchMax); w != 0 {
		t.Fatalf("sparse-traffic window = %v, want 0", w)
	}

	// The EWMA tracks a regime change from sparse to dense.
	for i := 0; i < 100; i++ {
		e.observe(base.Add(time.Second + time.Duration(i)*30*time.Microsecond))
	}
	if w := e.window(max, batchMax); w <= 0 || w > time.Millisecond {
		t.Fatalf("post-burst window = %v, want small and positive", w)
	}

	// With the gap cap (as New configures it), one overnight idle gap
	// must not poison the estimate: a burst resuming right after it
	// recovers a positive window within a few samples instead of ~100.
	e = arrivalEstimator{gapCapNS: gapCapWindows * float64(max)}
	at := base
	for i := 0; i < 20; i++ {
		at = at.Add(50 * time.Microsecond)
		e.observe(at)
	}
	at = at.Add(8 * time.Hour) // idle overnight
	e.observe(at)
	for i := 0; i < 5; i++ {
		at = at.Add(50 * time.Microsecond)
		e.observe(at)
	}
	if w := e.window(max, batchMax); w <= 0 {
		t.Fatalf("window stuck at %v after an idle gap; the gap cap failed", w)
	}

	// Out-of-order timestamps (concurrent handlers racing to observe)
	// must not rewind the clock and inflate the next gap.
	e = arrivalEstimator{}
	for i := 0; i < 20; i++ {
		e.observe(base.Add(time.Duration(i) * 50 * time.Microsecond))
	}
	e.observe(base) // stale timestamp from a racing handler
	e.observe(base.Add(19*50*time.Microsecond + 60*time.Microsecond))
	if got, _ := e.interarrival(); got > 100*time.Microsecond {
		t.Fatalf("stale timestamp inflated the estimate to %v", got)
	}
}

// TestAdaptiveWindowServing: an adaptive server keeps answering
// correctly under both idle and bursty traffic, and /stats exposes the
// estimator once primed.
func TestAdaptiveWindowServing(t *testing.T) {
	ts := startServer(t, Options{
		BatchWindow:    2 * time.Millisecond,
		AdaptiveWindow: true,
		BatchMax:       8,
	})

	// Sequential requests: each must come back alone and promptly even
	// though the estimator starts unprimed (fixed window) and then sees
	// sparse traffic (zero window).
	for i := 0; i < 8; i++ {
		code, pr := postPredict(t, ts.URL, `{"indices":[1,5],"values":[1,0.5],"k":3}`)
		if code != http.StatusOK || len(pr.IDs) != 3 {
			t.Fatalf("request %d: code %d ids %v", i, code, pr.IDs)
		}
		time.Sleep(3 * time.Millisecond) // beyond BatchWindow: sparse regime
	}

	// A concurrent burst: all answered, batch sizes stay within limits.
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"indices":[%d],"values":[1.0],"k":2}`, c%64)
			code, pr, err := tryPostPredict(ts.URL, body)
			if err != nil {
				errs <- err
				return
			}
			if code != http.StatusOK || len(pr.IDs) != 2 || pr.BatchSize < 1 || pr.BatchSize > 8 {
				errs <- fmt.Errorf("client %d: code %d, %d ids, batch %d", c, code, len(pr.IDs), pr.BatchSize)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap statsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests < 40 {
		t.Fatalf("stats saw %d requests", snap.Requests)
	}
	if snap.AdaptiveExact == nil || snap.AdaptiveExact.EWMAInterarrivalMillis <= 0 {
		t.Fatalf("primed exact-mode estimator missing from stats: %+v", snap)
	}
	// All traffic so far was exact; the sampled estimator must not have
	// been fed by it (the modes are tracked separately).
	if snap.AdaptiveSampled != nil {
		t.Fatalf("sampled estimator primed by exact traffic: %+v", snap.AdaptiveSampled)
	}
}

// TestPerModeAdaptiveWindows: each mode's estimator is fed only by its
// own traffic, and /stats reports both once both are primed.
func TestPerModeAdaptiveWindows(t *testing.T) {
	ts := startServer(t, Options{
		BatchWindow:    2 * time.Millisecond,
		AdaptiveWindow: true,
		BatchMax:       8,
	})

	post := func(sampled bool) {
		t.Helper()
		body := `{"indices":[1,5],"values":[1,0.5],"k":2}`
		if sampled {
			body = `{"indices":[1,5],"values":[1,0.5],"k":2,"sampled":true}`
		}
		code, pr := postPredict(t, ts.URL, body)
		if code != http.StatusOK || len(pr.IDs) != 2 {
			t.Fatalf("sampled=%v: code %d ids %v", sampled, code, pr.IDs)
		}
	}
	// Interleave enough of each mode to prime both estimators (priming
	// needs 3 gaps per mode).
	for i := 0; i < 6; i++ {
		post(false)
		post(true)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap statsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.AdaptiveExact == nil || snap.AdaptiveExact.EWMAInterarrivalMillis <= 0 {
		t.Fatalf("exact estimator not reported: %+v", snap)
	}
	if snap.AdaptiveSampled == nil || snap.AdaptiveSampled.EWMAInterarrivalMillis <= 0 {
		t.Fatalf("sampled estimator not reported: %+v", snap)
	}
	for _, m := range []*adaptiveModeStats{snap.AdaptiveExact, snap.AdaptiveSampled} {
		if m.WindowMillis < 0 || time.Duration(m.WindowMillis*float64(time.Millisecond)) > 2*time.Millisecond {
			t.Fatalf("window %.3fms outside [0, BatchWindow]", m.WindowMillis)
		}
	}
}

// TestSIGHUPReloadsModel: SIGHUP swaps the engine exactly like POST
// /reload — the model file is rewritten between signals, and the served
// engine follows it.
func TestSIGHUPReloadsModel(t *testing.T) {
	dir := t.TempDir()
	path := modelFile(t, dir, 31)

	s := serverFromFile(t, path, Options{})
	stop := s.WatchSIGHUP(t.Logf)
	t.Cleanup(stop)

	before := s.eng.Load()
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.reloads.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("SIGHUP did not trigger a reload")
		}
		time.Sleep(time.Millisecond)
	}
	after := s.eng.Load()
	if after == before {
		t.Fatal("SIGHUP did not swap the engine")
	}
	if after.model != path {
		t.Fatalf("reloaded engine model = %q, want %q", after.model, path)
	}

	// A second signal keeps working (the watcher loops).
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	for s.reloads.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second SIGHUP did not trigger a reload")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSIGHUPWithoutModelPath: a server started without -model logs and
// survives the signal instead of crashing or swapping in garbage.
func TestSIGHUPWithoutModelPath(t *testing.T) {
	s, err := New(testModel(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	stop := s.WatchSIGHUP(t.Logf)
	t.Cleanup(stop)

	before := s.eng.Load()
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if s.reloads.Load() != 0 || s.eng.Load() != before {
		t.Fatal("pathless SIGHUP must be a no-op")
	}
}

// TestAbandonedRequestRaceStress hammers the request path from
// concurrent clients with mixed modes and deadlines short enough to
// abandon queued work: the handler gives up on a request while the
// batcher still computes it and replies into its buffered channel. Run
// under -race it checks that an abandoned request shares nothing the
// batcher still writes; without it, it is a liveness smoke.
func TestAbandonedRequestRaceStress(t *testing.T) {
	ts := startServer(t, Options{
		BatchWindow: 500 * time.Microsecond,
		BatchMax:    8,
		CacheSize:   32,
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				var body string
				switch i % 4 {
				case 0:
					body = fmt.Sprintf(`{"indices":[%d,9],"values":[1,0.5],"k":3}`, i%50)
				case 1:
					body = fmt.Sprintf(`{"indices":[%d],"values":[1],"k":3,"sampled":true}`, i%50)
				case 2:
					body = fmt.Sprintf(`{"indices":[%d],"values":[1],"k":2,"sampled":true,"seed":%d}`, i%50, g)
				case 3:
					// A microsecond-scale deadline: most of these die while
					// queued, so the batcher answers requests nobody waits for.
					body = fmt.Sprintf(`{"indices":[%d,3],"values":[1,1],"k":3,"deadline_ms":0.001}`, i%50)
				}
				code, _, err := tryPostPredict(ts.URL, body)
				if err != nil {
					t.Error(err)
					return
				}
				switch code {
				case http.StatusOK, http.StatusGatewayTimeout, http.StatusServiceUnavailable:
				default:
					t.Errorf("unexpected status %d for %s", code, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPprofGatedByOption: the profiling endpoints exist exactly when
// EnablePprof is set — nothing is registered on the global mux either
// way, so embedding servers never leak /debug/pprof by accident.
func TestPprofGatedByOption(t *testing.T) {
	on := startServer(t, Options{EnablePprof: true})
	resp, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d with EnablePprof", resp.StatusCode)
	}
	off := startServer(t, Options{})
	resp, err = http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof index served without EnablePprof")
	}
}
