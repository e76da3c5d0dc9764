// Package loadgen is an open-loop HTTP load generator for slide-serve:
// the measurement half of the serving stack's tail-latency engineering.
//
// Open loop means arrivals follow a Poisson process at a configured
// offered rate, independent of how fast the server answers — the regime
// real traffic lives in, and the one that exposes queueing collapse.
// (A closed loop of N workers waiting on responses self-throttles
// exactly when the server saturates, hiding the tail a load test is
// trying to measure.)
//
// A run drives a configurable mix of exact, unseeded-sampled,
// seeded-sampled and bulk-batch requests whose inputs are drawn from a
// fixed key set with Zipf-distributed popularity — skewed enough that a
// response cache has something to hit — and reports percentile
// latencies, shed/deadline/error counts, and goodput (completed
// requests per second) against the offered rate.
package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// Mix sets the traffic composition as relative weights (they need not
// sum to 1; zero total means all-exact). Seeded requests reuse a stable
// per-key seed so repeats are cacheable by the server; Batch requests
// carry BatchSize Zipf-drawn keys through POST /predict/batch.
type Mix struct {
	Exact   float64 `json:"exact"`
	Sampled float64 `json:"sampled"`
	Seeded  float64 `json:"seeded"`
	Batch   float64 `json:"batch"`
}

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// QPS is the offered request rate (arrivals per second).
	QPS float64
	// Duration bounds the measured arrival schedule; in-flight requests
	// are awaited after the last arrival.
	Duration time.Duration
	// Warmup, when > 0, prepends uncounted arrivals at the same rate:
	// they are sent (establishing connections, priming the server's
	// estimators and batcher) but excluded from every Result counter and
	// percentile. Short measured runs need it — connection setup
	// otherwise dominates the tail.
	Warmup time.Duration
	// Mix is the traffic composition.
	Mix Mix
	// Keys is the pool of input vectors; requests draw from it with
	// Zipf(ZipfS) popularity (rank 1 = Keys[0]). Required.
	Keys []sparse.Vector
	// ZipfS is the Zipf skew exponent; 0 draws keys uniformly.
	ZipfS float64
	// K is the top-k each request asks for (default 5).
	K int
	// BatchSize is the element count of each /predict/batch body
	// (default 8).
	BatchSize int
	// DeadlineMs, when > 0, is attached to every request as deadline_ms.
	DeadlineMs float64
	// Timeout bounds each HTTP round trip (default 10s).
	Timeout time.Duration
	// Seed drives the whole schedule: arrival gaps, mode choices and key
	// draws are a pure function of (Config, Seed).
	Seed uint64
	// MaxInFlight caps concurrent outstanding requests (default 512).
	// When the cap is hit a due arrival is dropped client-side and
	// counted, never delayed — delaying arrivals would close the loop.
	MaxInFlight int
}

func (c Config) withDefaults() (Config, error) {
	if c.BaseURL == "" {
		return c, fmt.Errorf("loadgen: BaseURL required")
	}
	if c.QPS <= 0 {
		return c, fmt.Errorf("loadgen: QPS must be positive, got %v", c.QPS)
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("loadgen: Duration must be positive, got %v", c.Duration)
	}
	if c.Warmup < 0 {
		return c, fmt.Errorf("loadgen: Warmup must be >= 0, got %v", c.Warmup)
	}
	if len(c.Keys) == 0 {
		return c, fmt.Errorf("loadgen: Keys required")
	}
	if c.ZipfS < 0 {
		return c, fmt.Errorf("loadgen: ZipfS must be >= 0, got %v", c.ZipfS)
	}
	if c.K <= 0 {
		c.K = 5
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 512
	}
	if c.Mix.Exact < 0 || c.Mix.Sampled < 0 || c.Mix.Seeded < 0 || c.Mix.Batch < 0 {
		return c, fmt.Errorf("loadgen: negative mix weight")
	}
	if c.Mix.Exact+c.Mix.Sampled+c.Mix.Seeded+c.Mix.Batch == 0 {
		c.Mix.Exact = 1
	}
	return c, nil
}

// Result reports one load run.
type Result struct {
	// OfferedQPS echoes the configured rate; AchievedQPS is what the
	// generator actually sent (they diverge only when the client machine
	// itself cannot keep up).
	OfferedQPS  float64 `json:"offered_qps"`
	AchievedQPS float64 `json:"achieved_qps"`
	// GoodputQPS counts 200s per second of wall clock — the number the
	// goodput-vs-offered-load curve plots.
	GoodputQPS float64 `json:"goodput_qps"`

	Sent int64 `json:"sent"`
	OK   int64 `json:"ok"`
	// Shed counts 429s (admission control), DeadlineExceeded 504s,
	// Errors transport failures and any other status, Dropped arrivals
	// discarded client-side at the MaxInFlight cap.
	Shed             int64 `json:"shed"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Errors           int64 `json:"errors"`
	Dropped          int64 `json:"dropped"`
	// CacheHits counts responses the server marked X-Cache: hit.
	CacheHits int64 `json:"cache_hits"`

	// Latency percentiles over successful requests, client-observed.
	P50Millis  float64 `json:"p50_ms"`
	P90Millis  float64 `json:"p90_ms"`
	P99Millis  float64 `json:"p99_ms"`
	P999Millis float64 `json:"p999_ms"`
	MeanMillis float64 `json:"mean_ms"`

	ElapsedSeconds float64 `json:"elapsed_s"`
}

// expGap draws one exponential inter-arrival gap in seconds at rate qps
// from a uniform sample u in [0, 1): -ln(1-u)/qps, the waiting time of a
// Poisson process.
func expGap(u, qps float64) float64 {
	return -math.Log1p(-u) / qps
}

// zipfSampler draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s via a precomputed CDF and binary search. s=0 is uniform.
type zipfSampler struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipfSampler {
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return &zipfSampler{cdf: cdf}
}

// sample maps a uniform u in [0, 1) to a rank.
func (z *zipfSampler) sample(u float64) int {
	return sort.SearchFloat64s(z.cdf, u)
}

// reqKind is one scheduled request's shape.
type reqKind int

const (
	kindExact reqKind = iota
	kindSampled
	kindSeeded
	kindBatch
)

// event is one scheduled arrival: when (offset from run start), what
// (mode), and over which key(s).
type event struct {
	at   time.Duration
	kind reqKind
	key  int
	// batchKeys is set for kindBatch.
	batchKeys []int
	// warmup arrivals are sent but not counted.
	warmup bool
}

// seedFor returns the stable per-key seed attached to seeded requests.
// Stability is what makes seeded traffic cacheable: every seeded request
// for key i carries the same (input, seed) pair.
func seedFor(key int) uint64 { return uint64(key)*0x9e3779b97f4a7c15 + 1 }

// schedule materializes the full deterministic arrival schedule for a
// run: a pure function of the config (gaps, mode choices and key draws
// all come from one seeded RNG).
func schedule(cfg Config) []event {
	r := rng.New(cfg.Seed)
	z := newZipf(len(cfg.Keys), cfg.ZipfS)
	total := cfg.Mix.Exact + cfg.Mix.Sampled + cfg.Mix.Seeded + cfg.Mix.Batch
	var events []event
	at := 0.0
	for {
		at += expGap(r.Float64(), cfg.QPS)
		if at > (cfg.Warmup + cfg.Duration).Seconds() {
			return events
		}
		ev := event{at: time.Duration(at * float64(time.Second)),
			warmup: at < cfg.Warmup.Seconds()}
		switch u := r.Float64() * total; {
		case u < cfg.Mix.Exact:
			ev.kind = kindExact
		case u < cfg.Mix.Exact+cfg.Mix.Sampled:
			ev.kind = kindSampled
		case u < cfg.Mix.Exact+cfg.Mix.Sampled+cfg.Mix.Seeded:
			ev.kind = kindSeeded
		default:
			ev.kind = kindBatch
		}
		if ev.kind == kindBatch {
			ev.batchKeys = make([]int, cfg.BatchSize)
			for i := range ev.batchKeys {
				ev.batchKeys[i] = z.sample(r.Float64())
			}
		} else {
			ev.key = z.sample(r.Float64())
		}
		events = append(events, ev)
	}
}

// vecJSON pre-renders one key's indices/values JSON fragment so the hot
// dispatch path only concatenates strings. Identical requests must be
// byte-identical on the wire for the server's canonical cache keys to
// coincide — pre-rendering guarantees that for free.
func vecJSON(x sparse.Vector) string {
	var b strings.Builder
	b.WriteString(`"indices":[`)
	for i, idx := range x.Idx {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", idx)
	}
	b.WriteString(`],"values":[`)
	for i, v := range x.Val {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteString(`]`)
	return b.String()
}

// body renders the request body for one event.
func (cfg Config) body(vecs []string, ev event) (path, payload string) {
	var b strings.Builder
	tail := func() {
		fmt.Fprintf(&b, `,"k":%d`, cfg.K)
		if cfg.DeadlineMs > 0 {
			fmt.Fprintf(&b, `,"deadline_ms":%g`, cfg.DeadlineMs)
		}
		b.WriteByte('}')
	}
	if ev.kind == kindBatch {
		b.WriteString(`{"batch":[`)
		for i, k := range ev.batchKeys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('{')
			b.WriteString(vecs[k])
			b.WriteByte('}')
		}
		b.WriteString(`],"sampled":true`)
		tail()
		return "/predict/batch", b.String()
	}
	b.WriteByte('{')
	b.WriteString(vecs[ev.key])
	switch ev.kind {
	case kindSampled:
		b.WriteString(`,"sampled":true`)
	case kindSeeded:
		fmt.Fprintf(&b, `,"sampled":true,"seed":%d`, seedFor(ev.key))
	}
	tail()
	return "/predict", b.String()
}

// Run executes one open-loop load run and blocks until every dispatched
// request has completed (or the context is cancelled, which stops
// scheduling new arrivals and awaits the outstanding ones).
func Run(ctx context.Context, cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	events := schedule(cfg)
	vecs := make([]string, len(cfg.Keys))
	for i, x := range cfg.Keys {
		vecs[i] = vecJSON(x)
	}

	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.MaxInFlight,
			MaxIdleConnsPerHost: cfg.MaxInFlight,
		},
	}
	defer client.CloseIdleConnections()

	var (
		sent, ok, shed, deadline, errs, dropped, cacheHits atomic.Int64
		latMu                                              sync.Mutex
		lats                                               []float64
		wg                                                 sync.WaitGroup
	)
	sem := make(chan struct{}, cfg.MaxInFlight)
	start := time.Now()

	for _, ev := range events {
		// Open loop: sleep until the scheduled arrival; if we are behind
		// (client-side stall), fire immediately rather than thinning the
		// offered load.
		if d := time.Until(start.Add(ev.at)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		select {
		case sem <- struct{}{}:
		default:
			// The in-flight cap is the client protecting itself, not the
			// server: the arrival is dropped and counted, never queued.
			if !ev.warmup {
				dropped.Add(1)
			}
			continue
		}
		path, payload := cfg.body(vecs, ev)
		counted := !ev.warmup
		if counted {
			sent.Add(1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			resp, err := client.Post(cfg.BaseURL+path, "application/json",
				bytes.NewReader([]byte(payload)))
			if err != nil {
				if counted {
					errs.Add(1)
				}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if !counted {
				return
			}
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
				if resp.Header.Get("X-Cache") == "hit" {
					cacheHits.Add(1)
				}
				ms := float64(time.Since(t0).Microseconds()) / 1000
				latMu.Lock()
				lats = append(lats, ms)
				latMu.Unlock()
			case http.StatusTooManyRequests:
				shed.Add(1)
			case http.StatusGatewayTimeout:
				deadline.Add(1)
			default:
				errs.Add(1)
			}
		}()
	}
	wg.Wait()
	// Goodput and achieved rate are measured over the counted window
	// only (total wall clock minus the warmup).
	elapsed := time.Since(start) - cfg.Warmup
	if elapsed <= 0 {
		elapsed = time.Since(start)
	}

	res := Result{
		OfferedQPS:       cfg.QPS,
		Sent:             sent.Load(),
		OK:               ok.Load(),
		Shed:             shed.Load(),
		DeadlineExceeded: deadline.Load(),
		Errors:           errs.Load(),
		Dropped:          dropped.Load(),
		CacheHits:        cacheHits.Load(),
		ElapsedSeconds:   elapsed.Seconds(),
	}
	if s := elapsed.Seconds(); s > 0 {
		res.AchievedQPS = float64(res.Sent) / s
		res.GoodputQPS = float64(res.OK) / s
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		sum := 0.0
		for _, l := range lats {
			sum += l
		}
		res.MeanMillis = sum / float64(len(lats))
		res.P50Millis = pctl(lats, 0.50)
		res.P90Millis = pctl(lats, 0.90)
		res.P99Millis = pctl(lats, 0.99)
		res.P999Millis = pctl(lats, 0.999)
	}
	return res, nil
}

// pctl is the nearest-rank percentile over ascending-sorted samples —
// the same definition the server's /stats uses, so client- and
// server-side tails are comparable.
func pctl(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
