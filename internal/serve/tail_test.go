package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sparse"
)

// getStats decodes /stats.
func getStats(t *testing.T, url string) statsSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap statsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// postRaw posts a /predict body and returns status, headers and the raw
// response bytes — the cache tests compare bodies bit for bit.
func postRaw(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// TestAdmissionControlSheds pins the shedding contract: with a latency
// budget configured, a primed service-time estimate and a deep virtual
// queue, new requests get 429 with a Retry-After header and the shed
// counter moves — and draining the queue admits traffic again.
func TestAdmissionControlSheds(t *testing.T) {
	s, err := New(testModel(t), Options{BatchWindow: 0, LatencyBudget: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// The controller's clock, which the test moves forward by hand.
	var skew atomic.Int64
	s.adm.now = func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Unprimed controller admits everything — this request also primes
	// the per-element service-time EWMA.
	code, _, _ := postRaw(t, ts.URL, `{"indices":[1,7],"values":[1,1],"k":3}`)
	if code != http.StatusOK {
		t.Fatalf("priming request: status %d", code)
	}
	if svc := s.adm.serviceNS(); svc <= 0 {
		t.Fatal("service-time estimate still unprimed after a completed request")
	}

	// Simulate a queue deep enough that expected wait >> budget. The
	// inflight counter is the controller's only queue signal, so bumping
	// it is exactly the state a real backlog would produce. A backlog is
	// a burst until it has stood for the grace period, so the first
	// request over the budget is still answered; past the grace (on a
	// clock the test advances by hand) it is overload.
	s.adm.start(1_000_000)
	code, _, _ = postRaw(t, ts.URL, `{"indices":[1,7],"values":[1,1],"k":3}`)
	if code != http.StatusOK {
		t.Fatalf("first request over the budget: status %d, want 200 (burst grace)", code)
	}
	skew.Add(int64(graceBudgets * s.opts.LatencyBudget))
	code, hdr, body := postRaw(t, ts.URL, `{"indices":[1,7],"values":[1,1],"k":3}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overloaded request: status %d (body %s), want 429", code, body)
	}
	ra := hdr.Get("Retry-After")
	if ra == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a whole number of seconds >= 1", ra)
	}

	// Batch endpoint sheds too, weighted by element count.
	resp, err := http.Post(ts.URL+"/predict/batch", "application/json",
		bytes.NewReader([]byte(`{"batch":[{"indices":[1],"values":[1]},{"indices":[2],"values":[1]}],"k":2}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded batch request: status %d, want 429", resp.StatusCode)
	}

	snap := getStats(t, ts.URL)
	if snap.Shed != 2 {
		t.Fatalf("shed counter = %d, want 2", snap.Shed)
	}
	if snap.LatencyBudgetMillis != 10 {
		t.Fatalf("latency_budget_ms = %v, want 10", snap.LatencyBudgetMillis)
	}
	if snap.ExpectedWaitMillis <= snap.LatencyBudgetMillis {
		t.Fatalf("expected_wait_ms = %v not above budget while overloaded", snap.ExpectedWaitMillis)
	}

	// Drain the virtual queue and let the sojourn envelope decay past the
	// hysteresis threshold (half the budget): traffic is admitted again.
	s.adm.done(1_000_000)
	skew.Add(int64(5 * s.opts.LatencyBudget))
	code, _, _ = postRaw(t, ts.URL, `{"indices":[1,7],"values":[1,1],"k":3}`)
	if code != http.StatusOK {
		t.Fatalf("post-drain request: status %d, want 200", code)
	}
}

// TestAdmissionEstimator unit-tests the controller arithmetic: EWMA
// priming and convergence, expected wait scaling with inflight work, and
// budget=0 disabling shedding entirely.
func TestAdmissionEstimator(t *testing.T) {
	clk := newFakeClock()
	a := admission{budget: time.Millisecond, now: clk.now}
	grace := graceBudgets * a.budget

	// Unprimed: everything admitted, wait reads 0.
	if wait, ok := a.admit(1); !ok || wait != 0 {
		t.Fatalf("unprimed admit = (%v, %v), want (0, true)", wait, ok)
	}

	// First observation seeds the EWMA exactly.
	a.observe(10*time.Millisecond, 10) // 1ms per element
	if got := a.serviceNS(); got != float64(time.Millisecond) {
		t.Fatalf("seeded svc = %vns, want 1ms", got)
	}
	// Expected wait scales with inflight + new work.
	a.start(4)
	if got := a.expectedWait(1); got != 5*time.Millisecond {
		t.Fatalf("expectedWait(1) with 4 inflight = %v, want 5ms", got)
	}
	// 5ms expected wait > 1ms budget: a burst while the backlog is
	// younger than the grace, overload — shed — once it has stood that
	// long, and the returned wait is the estimate the Retry-After is
	// derived from.
	if wait, ok := a.admit(1); !ok || wait != 5*time.Millisecond {
		t.Fatalf("admit over budget inside the grace = (%v, %v), want (5ms, true)", wait, ok)
	}
	clk.advance(grace)
	if wait, ok := a.admit(1); ok || wait != 5*time.Millisecond {
		t.Fatalf("admit over budget past the grace = (%v, %v), want (5ms, false)", wait, ok)
	}
	// Hysteresis: having shed, the controller stays shut while the
	// expected wait (2×1ms with one element left in flight) still
	// exceeds half the budget — dipping under the budget is not drained
	// enough — and the grace does not re-arm.
	a.done(3)
	if _, ok := a.admit(1); ok {
		t.Fatal("admit behind in-flight work re-opened despite hysteresis")
	}

	// The EWMA tracks a faster regime, and once the expected wait falls
	// below half the budget the latch releases.
	for i := 0; i < 200; i++ {
		a.observe(100*time.Microsecond, 1)
	}
	if got := a.serviceNS(); got > float64(150*time.Microsecond) {
		t.Fatalf("svc stuck at %vns after regime change to 100µs", got)
	}
	if _, ok := a.admit(1); !ok {
		t.Fatal("admit after drain + regime change refused")
	}
	if a.shedding || !a.overSince.IsZero() {
		t.Fatalf("latch %v / overSince %v not cleared by an admission under the threshold", a.shedding, a.overSince)
	}
	a.done(1)

	// Zero budget disables shedding no matter the queue.
	var off admission
	off.observe(time.Second, 1)
	off.start(1_000_000)
	if _, ok := off.admit(1); !ok {
		t.Fatal("budget=0 controller shed a request")
	}

	// The measured sojourn backstops the queue model: even with almost
	// nothing queued, when completed requests took longer than the budget
	// (and have for a grace) the overheads the model cannot see are
	// eating it, and arrivals behind in-flight work are shed.
	sj := admission{budget: 50 * time.Millisecond, now: clk.now}
	sj.observe(time.Millisecond, 1)
	sj.observeSojourn(200 * time.Millisecond)
	sj.start(1)
	if _, ok := sj.admit(1); !ok {
		t.Fatal("sojourn over budget refused inside the grace")
	}
	clk.advance(graceBudgets * sj.budget)
	sj.observeSojourn(200 * time.Millisecond)
	if wait, ok := sj.admit(1); ok || wait < sj.budget {
		t.Fatalf("sojourn over budget for a whole grace admitted: (%v, %v)", wait, ok)
	}
	// ...and silence decays the estimate (half per budget of idle time)
	// so shed traffic probes its way back in instead of latching out.
	clk.advance(10 * sj.budget)
	if _, ok := sj.admit(1); !ok {
		t.Fatal("stale sojourn estimate latched the controller shut")
	}
}

// TestRequestDeadlines covers the deadline plumbing end to end: a
// deadline too tight for the configured gather window turns into 504 and
// moves the deadline_exceeded counter, the header form works, and the
// tighter of body and header wins.
func TestRequestDeadlines(t *testing.T) {
	// A long fixed gather window guarantees a queued request waits well
	// past a 1ms deadline.
	ts := startServer(t, Options{BatchWindow: 200 * time.Millisecond, BatchMax: 64})

	post := func(body string, header string) (int, []byte) {
		req, err := http.NewRequest("POST", ts.URL+"/predict", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if header != "" {
			req.Header.Set(deadlineHeader, header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	// Body deadline_ms.
	code, body := post(`{"indices":[1,7],"values":[1,1],"k":3,"deadline_ms":1}`, "")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("body deadline: status %d (body %s), want 504", code, body)
	}
	// Header deadline.
	code, body = post(`{"indices":[1,7],"values":[1,1],"k":3}`, "1")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("header deadline: status %d (body %s), want 504", code, body)
	}
	// Tighter wins: generous body, tight header.
	code, body = post(`{"indices":[1,7],"values":[1,1],"k":3,"deadline_ms":60000}`, "1")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("tighter header deadline: status %d (body %s), want 504", code, body)
	}

	snap := getStats(t, ts.URL)
	if snap.DeadlineExceeded != 3 {
		t.Fatalf("deadline_exceeded counter = %d, want 3", snap.DeadlineExceeded)
	}

	// A generous deadline succeeds on the same server.
	code, body = post(`{"indices":[1,7],"values":[1,1],"k":3,"deadline_ms":60000}`, "")
	if code != http.StatusOK {
		t.Fatalf("generous deadline: status %d (body %s), want 200", code, body)
	}
}

func TestRequestDeadlineResolution(t *testing.T) {
	h := func(v string) http.Header {
		hd := http.Header{}
		if v != "" {
			hd.Set(deadlineHeader, v)
		}
		return hd
	}
	for _, tc := range []struct {
		name   string
		bodyMs float64
		header string
		want   time.Duration
		// errNames is the source a rejection must name ("" = accepted).
		errNames string
	}{
		{"none", 0, "", 0, ""},
		{"body only", 5, "", 5 * time.Millisecond, ""},
		{"header only", 0, "7", 7 * time.Millisecond, ""},
		{"tighter header wins", 10, "3", 3 * time.Millisecond, ""},
		{"tighter body wins", 2, "50", 2 * time.Millisecond, ""},
		{"fractional header", 0, "0.5", 500 * time.Microsecond, ""},
		{"malformed header", 0, "soon", 0, deadlineHeader},
		{"negative header", 0, "-1", 0, deadlineHeader},
		{"negative body", -1, "", 0, "deadline_ms"},
		{"NaN header", 0, "NaN", 0, deadlineHeader},
		{"Inf header", 0, "Inf", 0, deadlineHeader},
		{"NaN header beside a body deadline", 5, "NaN", 0, deadlineHeader},
		{"huge header is no deadline", 0, "1e300", 0, ""},
		{"huge body is no deadline", 1e20, "", 0, ""},
		{"huge body, header 5", 1e20, "5", 5 * time.Millisecond, ""},
	} {
		got, err := requestDeadline(tc.bodyMs, h(tc.header))
		if tc.errNames != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errNames) {
				t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.errNames)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%s: deadline = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}

// TestBatcherPrunesDoomedWork: runBatch answers members already past
// their deadline with DeadlineExceeded instead of computing them, while
// on-time members in the same gathered batch still get served.
func TestBatcherPrunesDoomedWork(t *testing.T) {
	s, err := New(testModel(t), Options{BatchWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	x, err := sparse.New(64, []int32{1, 2}, []float32{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(deadline time.Time) *pendingReq {
		return &pendingReq{eng: s.eng.Load(), x: x, k: 2, deadline: deadline,
			reply: make(chan batchReply, 1)}
	}
	doomed := mk(time.Now().Add(-time.Second))
	alive := mk(time.Now().Add(time.Minute))
	open := mk(time.Time{})
	s.runBatch([]*pendingReq{doomed, alive, open})

	if rep := <-doomed.reply; rep.err != context.DeadlineExceeded {
		t.Fatalf("doomed request err = %v, want DeadlineExceeded", rep.err)
	}
	for name, r := range map[string]*pendingReq{"alive": alive, "open-ended": open} {
		rep := <-r.reply
		if rep.err != nil || len(rep.ids) != 2 {
			t.Fatalf("%s request: err %v, %d ids; want served with 2 ids", name, rep.err, len(rep.ids))
		}
		// The pruned member left the group before the fan-out, so the
		// reported batch size counts only the served members.
		if rep.batchSize != 2 {
			t.Fatalf("%s request batch size = %d, want 2", name, rep.batchSize)
		}
	}
}

// TestGroupContext: the fan-out context carries the group's latest
// deadline only when every member has one.
func TestGroupContext(t *testing.T) {
	later := time.Now().Add(time.Hour)
	sooner := time.Now().Add(time.Minute)
	mk := func(d time.Time) *pendingReq { return &pendingReq{deadline: d} }

	ctx, cancel := groupContext([]*pendingReq{mk(sooner), mk(later)})
	defer cancel()
	if d, ok := ctx.Deadline(); !ok || !d.Equal(later) {
		t.Fatalf("all-deadline group: ctx deadline = %v/%v, want %v", d, ok, later)
	}

	ctx2, cancel2 := groupContext([]*pendingReq{mk(sooner), mk(time.Time{})})
	defer cancel2()
	if _, ok := ctx2.Deadline(); ok {
		t.Fatal("group with an open-ended member must run uncancellable")
	}
}

// TestResponseCacheHits is the cache half of the tentpole acceptance:
// repeated exact and seeded-sampled requests are served from the cache
// with byte-identical bodies, unseeded sampled traffic is never cached,
// and the counters in /stats move accordingly.
func TestResponseCacheHits(t *testing.T) {
	ts := startServer(t, Options{BatchWindow: 0, CacheSize: 64})

	check := func(name, body string) {
		t.Helper()
		code, hdr, first := postRaw(t, ts.URL, body)
		if code != http.StatusOK {
			t.Fatalf("%s fill: status %d", name, code)
		}
		if got := hdr.Get("X-Cache"); got != "miss" {
			t.Fatalf("%s fill: X-Cache = %q, want miss", name, got)
		}
		for i := 0; i < 3; i++ {
			code, hdr, got := postRaw(t, ts.URL, body)
			if code != http.StatusOK {
				t.Fatalf("%s hit %d: status %d", name, i, code)
			}
			if h := hdr.Get("X-Cache"); h != "hit" {
				t.Fatalf("%s hit %d: X-Cache = %q, want hit", name, i, h)
			}
			if !bytes.Equal(got, first) {
				t.Fatalf("%s hit %d: body diverged from fill:\n%s\nvs\n%s", name, i, got, first)
			}
		}
	}
	check("exact", `{"indices":[1,7,33],"values":[1.0,0.5,2.0],"k":3}`)
	check("seeded sampled", `{"indices":[1,7,33],"values":[1.0,0.5,2.0],"k":3,"sampled":true,"seed":42}`)

	// Unseeded sampled requests bypass the cache entirely.
	_, hdr, _ := postRaw(t, ts.URL, `{"indices":[1,7],"values":[1,1],"k":3,"sampled":true}`)
	if h := hdr.Get("X-Cache"); h != "" {
		t.Fatalf("unseeded sampled request got X-Cache = %q, want absent", h)
	}

	snap := getStats(t, ts.URL)
	if snap.CacheHits != 6 || snap.CacheMisses != 2 {
		t.Fatalf("cache counters = %d hits / %d misses, want 6/2", snap.CacheHits, snap.CacheMisses)
	}
	if snap.CacheEntries != 2 {
		t.Fatalf("cache_entries = %d, want 2", snap.CacheEntries)
	}

	// Different k, seed, or values are different entries, not collisions.
	for name, body := range map[string]string{
		"different k":    `{"indices":[1,7,33],"values":[1.0,0.5,2.0],"k":4}`,
		"different seed": `{"indices":[1,7,33],"values":[1.0,0.5,2.0],"k":3,"sampled":true,"seed":43}`,
		"different vals": `{"indices":[1,7,33],"values":[1.0,0.5,2.5],"k":3}`,
	} {
		_, hdr, _ := postRaw(t, ts.URL, body)
		if h := hdr.Get("X-Cache"); h != "miss" {
			t.Fatalf("%s: X-Cache = %q, want miss (a hit means a key collision)", name, h)
		}
	}
}

// TestCacheInvalidatedByReload: a /reload bumps the engine generation
// and flushes the cache, so post-reload traffic refills instead of
// serving answers from the previous model.
func TestCacheInvalidatedByReload(t *testing.T) {
	dir := t.TempDir()
	path := modelFile(t, dir, 41)
	s := serverFromFile(t, path, Options{BatchWindow: 0, CacheSize: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const body = `{"indices":[1,7],"values":[1,1],"k":3}`
	postRaw(t, ts.URL, body) // fill
	if _, hdr, _ := postRaw(t, ts.URL, body); hdr.Get("X-Cache") != "hit" {
		t.Fatal("warm cache did not hit before reload")
	}
	if s.cache.len() == 0 {
		t.Fatal("cache empty after a fill")
	}

	code, rep := postJSON(t, ts.URL+"/reload", ``)
	if code != http.StatusOK {
		t.Fatalf("reload: status %d: %v", code, rep)
	}
	if rep["generation"] != float64(1) {
		t.Fatalf("post-reload generation = %v, want 1", rep["generation"])
	}
	if s.cache.len() != 0 {
		t.Fatalf("cache holds %d entries after reload, want 0", s.cache.len())
	}
	// Same request misses (new generation key) and refills.
	if _, hdr, _ := postRaw(t, ts.URL, body); hdr.Get("X-Cache") != "miss" {
		t.Fatal("post-reload request did not miss")
	}
	if _, hdr, _ := postRaw(t, ts.URL, body); hdr.Get("X-Cache") != "hit" {
		t.Fatal("post-reload refill did not hit")
	}
}

// TestRespCacheLRU unit-tests the cache container: eviction order,
// recency promotion, the racing-filler rule, and purge.
func TestRespCacheLRU(t *testing.T) {
	c := newRespCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // promotes a to most-recent
		t.Fatal("a missing")
	}
	c.put("c", []byte("C")) // evicts b, the least recently used
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used a was evicted instead of b")
	}
	if c.evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.evictions)
	}

	// A racing filler must not replace an existing body: repeated hits
	// stay byte-identical to the first fill.
	c.put("a", []byte("A2"))
	if body, _ := c.get("a"); string(body) != "A" {
		t.Fatalf("racing put replaced the body: %q", body)
	}

	c.purge()
	if c.len() != 0 {
		t.Fatalf("purged cache holds %d entries", c.len())
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("purged entry still served")
	}
}

// TestCacheKeyCanonical pins key semantics: generation, k, mode, seed,
// indices and values all distinguish entries; a seed on an exact request
// does not (it is inert, so seeded and unseeded exact share an entry).
func TestCacheKeyCanonical(t *testing.T) {
	x, err := sparse.New(64, []int32{1, 7}, []float32{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	y, err := sparse.New(64, []int32{1, 8}, []float32{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	base := cacheKey(0, x, 3, false, false, 0)
	distinct := map[string]string{
		"generation": cacheKey(1, x, 3, false, false, 0),
		"k":          cacheKey(0, x, 4, false, false, 0),
		"mode":       cacheKey(0, x, 3, true, true, 0),
		"seed":       cacheKey(0, x, 3, true, true, 7),
		"indices":    cacheKey(0, y, 3, false, false, 0),
	}
	for name, k := range distinct {
		if k == base {
			t.Errorf("%s did not change the cache key", name)
		}
	}
	if cacheKey(0, x, 3, true, true, 7) == cacheKey(0, x, 3, true, true, 8) {
		t.Error("seed 7 and 8 collide")
	}
	// Exact requests normalize the seed away.
	if cacheKey(0, x, 3, false, true, 9) != base {
		t.Error("inert seed on an exact request changed the key")
	}
	// Values participate.
	z, err := sparse.New(64, []int32{1, 7}, []float32{1, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if cacheKey(0, z, 3, false, false, 0) == base {
		t.Error("values did not change the cache key")
	}
}

// TestGracefulCloseDrainsQueue: requests enqueued before Close still get
// answers (the drain path), matching the slide-serve graceful-shutdown
// satellite.
func TestGracefulCloseDrainsQueue(t *testing.T) {
	s, err := New(testModel(t), Options{BatchWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	x, err := sparse.New(64, []int32{3}, []float32{1})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*pendingReq, 8)
	for i := range reqs {
		reqs[i] = &pendingReq{eng: s.eng.Load(), x: x, k: 2, reply: make(chan batchReply, 1)}
		s.reqCh <- reqs[i]
	}
	s.Close() // batchLoop must drain the queue before exiting
	for i, r := range reqs {
		select {
		case rep := <-r.reply:
			if rep.err != nil || len(rep.ids) != 2 {
				t.Fatalf("request %d: err %v, %d ids", i, rep.err, len(rep.ids))
			}
		default:
			t.Fatalf("request %d never answered after Close", i)
		}
	}
}
