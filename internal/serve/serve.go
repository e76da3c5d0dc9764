// Package serve is the slide-serve HTTP front end as a library: model
// serving with micro-batching, atomic engine hot-swap (POST /reload,
// SIGHUP), per-request deadlines, admission control with a latency
// budget, and a generation-keyed response cache.
//
// cmd/slide-serve wraps it in a configured http.Server; the
// load-generator tests embed it directly so a real serving stack can be
// driven in-process.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sparse"
)

// Options configures the serving front end.
type Options struct {
	// DefaultK is used when a request omits k; MaxK caps requested k.
	DefaultK int
	MaxK     int
	// BatchWindow is how long the micro-batcher waits to gather
	// concurrent requests into one PredictBatch call; 0 disables
	// batching and every request runs its own single-example pass.
	// With AdaptiveWindow it is the upper clamp instead of the fixed
	// wait.
	BatchWindow time.Duration
	// AdaptiveWindow derives each micro-batch's gather window from an
	// EWMA of the observed request inter-arrival time instead of waiting
	// the full BatchWindow: long enough to fill BatchMax at the current
	// rate, zero when no second request is expected in time, clamped to
	// [0, BatchWindow].
	AdaptiveWindow bool
	// BatchMax bounds the number of requests per micro-batch.
	BatchMax int
	// BatchBodyMax bounds the number of vectors a single /predict/batch
	// request may carry.
	BatchBodyMax int
	// ModelPath is the model file the server was started from and the
	// default source for POST /reload; empty disables path-less reloads.
	ModelPath string
	// LatencyBudget enables admission control: when the expected wait of
	// a new request (queued work × observed per-element service time)
	// would push its total latency beyond the budget, the request is
	// shed with 429 and a Retry-After header instead of joining a queue
	// it cannot clear in time. 0 disables shedding.
	LatencyBudget time.Duration
	// CacheSize bounds the response cache in entries. Exact and seeded
	// sampled predictions are pure functions of (input, k, seed) within
	// one engine generation, so their serialized response bodies are
	// cached and replayed byte-identically until the next engine swap.
	// 0 disables the cache.
	CacheSize int
	// MaxBodyBytes caps the /predict request body; /predict/batch allows
	// 16x it (bulk bodies carry up to BatchBodyMax vectors) and /reload
	// a quarter (its body is one path). 0 keeps the 4 MiB default, which
	// preserves the previous hard-coded 4/64/1 MiB caps.
	MaxBodyBytes int64
	// NoPooling disables the per-request workspace pool: every request
	// allocates its decode scratch, vector components, result slices and
	// response buffer fresh. It exists for measurement — the same
	// operating points with pooling on and off show the GC-pause cost the
	// pool removes — not for production use.
	NoPooling bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's own mux (nothing is registered globally), for heap and
	// allocation profiling against a live server.
	EnablePprof bool
}

func (o Options) withDefaults() Options {
	if o.DefaultK <= 0 {
		o.DefaultK = 5
	}
	if o.MaxK <= 0 {
		o.MaxK = 100
	}
	if o.BatchMax <= 0 {
		o.BatchMax = 64
	}
	if o.BatchBodyMax <= 0 {
		o.BatchBodyMax = 1024
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 22
	}
	return o
}

// engine is one servable (Network, Predictor) pair. The server publishes
// the current engine through an atomic pointer — the same swap-a-handle
// idiom the core uses for hash-table rebuilds — so POST /reload replaces
// the whole pair in one store while in-flight requests finish on the
// engine they started with (pendingReq pins it), even if the new model
// has a different shape.
type engine struct {
	net   *core.Network
	pred  *core.Predictor
	model string // file the pair was loaded from ("" for in-memory models)
	// gen is the engine's generation: 0 for the boot engine, the reload
	// counter value for every engine swapped in after it. Response-cache
	// keys embed it, so entries filled against one model can never be
	// served from another.
	gen int64
}

func newEngine(net *core.Network, model string, gen int64) (*engine, error) {
	pred, err := net.NewPredictor()
	if err != nil {
		return nil, err
	}
	return &engine{net: net, pred: pred, model: model, gen: gen}, nil
}

// Server owns the swappable engine and the micro-batching queue in front
// of it.
type Server struct {
	eng  atomic.Pointer[engine]
	opts Options

	// reloadMu serializes /reload so concurrent reloads do not waste
	// duplicate model loads; prediction traffic never takes it.
	reloadMu sync.Mutex
	reloads  atomic.Int64

	reqCh chan *pendingReq
	done  chan struct{}
	wg    sync.WaitGroup

	stats statsRecorder
	adm   admission
	cache *respCache
	// arrivals tracks one inter-arrival estimator per inference mode,
	// indexed by modeIdx: exact and sampled requests have very different
	// service times and traffic mixes, so each micro-batch's gather
	// window is sized from the arrival rate of its own mode rather than
	// a blended estimate that overstates both.
	arrivals [2]arrivalEstimator

	// wsPool recycles per-request workspaces (see workspace.go); it is
	// per-server so Options.NoPooling stays a per-server decision.
	wsPool sync.Pool

	// Batcher-owned scratch, touched only from the batchLoop goroutine
	// (runBatch callers): the gather slice, the reused gather timer, the
	// per-batch (engine, mode) group partition, the seeded side list,
	// the group input vectors, and the predictor's reusable batch result
	// storage. Reusing them makes a steady-state micro-batch cycle
	// allocation-free.
	gather      []*pendingReq
	gatherTimer *time.Timer
	groups      []reqGroup
	seededReqs  []*pendingReq
	groupXs     []sparse.Vector
	batchRes    core.BatchResults
}

// reqGroup is one (engine, mode) partition of a gathered micro-batch;
// the slice of groups and each group's request list are reused across
// batches.
type reqGroup struct {
	key  batchGroup
	reqs []*pendingReq
}

// modeIdx indexes per-mode state: 0 exact, 1 sampled.
func modeIdx(sampled bool) int {
	if sampled {
		return 1
	}
	return 0
}

// pendingReq is one /predict request waiting for a micro-batch slot. It
// pins the engine that validated it, so a reload mid-queue cannot run the
// request against a model with a different input dimension.
type pendingReq struct {
	eng     *engine
	x       sparse.Vector
	k       int
	sampled bool
	// seeded marks a request carrying a "seed" field; its sampled
	// prediction must be a pure function of (x, seed).
	seeded bool
	seed   uint64
	// deadline is the absolute point the request's answer stops being
	// useful (zero: none). The batcher prunes requests already past it
	// instead of computing them, and derives the batch context from the
	// group's deadlines so PredictBatch cancels doomed fan-outs.
	deadline time.Time
	reply    chan batchReply
	// ids/scores are the request's result buffers, owned by its
	// workspace and reused across requests: runOne predicts straight
	// into them, and the batcher copies its group's shared results into
	// them before replying, so the reply never aliases scratch another
	// request might reuse.
	ids    []int32
	scores []float32
}

type batchReply struct {
	ids       []int32
	scores    []float32
	batchSize int
	err       error
}

// New builds a server over an already-loaded network. The returned
// Server is ready to serve via Handler; Close stops its micro-batcher.
func New(net *core.Network, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	eng, err := newEngine(net, opts.ModelPath, 0)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:  opts,
		reqCh: make(chan *pendingReq, 4*opts.BatchMax),
		done:  make(chan struct{}),
	}
	for m := range s.arrivals {
		s.arrivals[m].gapCapNS = gapCapWindows * float64(opts.BatchWindow)
	}
	s.adm.budget = opts.LatencyBudget
	if opts.CacheSize > 0 {
		s.cache = newRespCache(opts.CacheSize)
	}
	s.eng.Store(eng)
	s.wg.Add(1)
	go s.batchLoop()
	return s, nil
}

// Close stops the micro-batcher. Requests already queued are served
// (batchLoop drains the queue before exiting); a request that races past
// the drain gets an error reply from its own wait on s.done rather than
// blocking forever.
func (s *Server) Close() {
	close(s.done)
	s.wg.Wait()
}

// Handler returns the HTTP routing for the server's endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", s.handlePredict)
	mux.HandleFunc("POST /predict/batch", s.handlePredictBatch)
	mux.HandleFunc("POST /reload", s.handleReload)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	if s.opts.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// deadlineHeader carries a per-request deadline in milliseconds; the
// body's deadline_ms field does the same for clients that cannot set
// headers. When both are present the tighter one wins.
const deadlineHeader = "X-Slide-Deadline-Ms"

// requestDeadline resolves a request's deadline budget from body field
// and header; 0 means none. A malformed header is an error the client
// should hear about, not a silently unbounded request.
func requestDeadline(bodyMs float64, h http.Header) (time.Duration, error) {
	d := time.Duration(bodyMs * float64(time.Millisecond))
	if v := h.Get(deadlineHeader); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			return 0, fmt.Errorf("bad %s header %q", deadlineHeader, v)
		}
		hd := time.Duration(ms * float64(time.Millisecond))
		if d == 0 || (hd > 0 && hd < d) {
			d = hd
		}
	}
	if d < 0 {
		return 0, fmt.Errorf("negative deadline_ms")
	}
	return d, nil
}

// predictRequest is the POST /predict body: a sparse feature vector as
// parallel index/value lists, the requested top-k, and whether to use
// SLIDE's sub-linear sampled inference or the exact full forward pass.
// An optional seed makes a sampled prediction deterministic: identical
// (indices, values, k, seed) requests return identical ids and scores no
// matter what other traffic the server is handling. Exact predictions
// are always deterministic; seed is ignored for them. An optional
// deadline_ms bounds how long the caller will wait: work that cannot
// finish inside it is cancelled (504) instead of computed.
//
// The handler no longer decodes into this struct — decodePredict
// (json.go) parses the same schema into pooled workspace buffers — but
// it remains the authoritative wire-format declaration, and the codec
// tests cross-check the hand-rolled parser against it.
type predictRequest struct {
	Indices    []int32   `json:"indices"`
	Values     []float32 `json:"values"`
	K          int       `json:"k"`
	Sampled    bool      `json:"sampled"`
	Seed       *uint64   `json:"seed"`
	DeadlineMs float64   `json:"deadline_ms"`
}

type predictResponse struct {
	IDs       []int32   `json:"ids"`
	Scores    []float32 `json:"scores"`
	Mode      string    `json:"mode"`
	BatchSize int       `json:"batch_size"`
	Millis    float64   `json:"ms"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	ws := s.getWorkspace()
	if s.processPredict(w, r, ws) {
		s.putWorkspace(ws)
	}
}

// processPredict serves one /predict on a checked-out workspace. It is
// the whole request path below the net/http connection layer — body
// read, decode, validation, cache, admission, dispatch, encode, write —
// and on the steady-state cache-miss path it performs zero heap
// allocations (the regression test pins exactly this seam). The return
// value reports whether ws is safe to pool again: false exactly when
// the request was abandoned after joining the micro-batch queue, so the
// batcher may still write into ws's buffers and send on its reply
// channel.
func (s *Server) processPredict(w http.ResponseWriter, r *http.Request, ws *reqWorkspace) bool {
	t0 := time.Now()
	var err error
	ws.body, err = readBody(r.Body, ws.body, s.opts.MaxBodyBytes)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return true
	}
	ws.idx, ws.val, err = decodePredict(ws.body, ws.idx, ws.val, &ws.params)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return true
	}
	if len(ws.idx) != len(ws.val) {
		httpError(w, http.StatusBadRequest, "%d indices but %d values", len(ws.idx), len(ws.val))
		return true
	}
	if len(ws.idx) == 0 {
		httpError(w, http.StatusBadRequest, "empty feature vector")
		return true
	}
	k := ws.params.k
	if k <= 0 {
		k = s.opts.DefaultK
	}
	if k > s.opts.MaxK {
		k = s.opts.MaxK
	}
	budget, err := requestDeadline(ws.params.deadlineMs, r.Header)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return true
	}
	eng := s.eng.Load()
	// View, not New: well-formed component lists become a zero-copy
	// vector over the workspace's buffers (ill-formed ones fall back to
	// the copying, validating constructor).
	x, err := sparse.View(eng.net.Config().InputDim, ws.idx, ws.val)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad feature vector: %v", err)
		return true
	}

	p := &ws.pr
	p.eng, p.x, p.k, p.sampled = eng, x, k, ws.params.sampled
	p.seeded = ws.params.sampled && ws.params.seeded
	p.seed = ws.params.seed
	p.deadline = time.Time{}
	ctx := r.Context()
	if budget > 0 {
		p.deadline = t0.Add(budget)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, p.deadline)
		defer cancel()
	}

	// Response cache: exact predictions are always deterministic and
	// seeded sampled ones are pure functions of (input, seed), so within
	// one engine generation their serialized bodies can be replayed
	// verbatim. Hits bypass the queue and the admission gate — they cost
	// microseconds, shedding them would protect nothing.
	cacheable := s.cache != nil && (!p.sampled || p.seeded)
	var key string
	if cacheable {
		key = cacheKey(eng.gen, x, k, p.sampled, p.seeded, p.seed)
		if body, ok := s.cache.get(key); ok {
			s.stats.cacheHits.Add(1)
			s.stats.record(float64(time.Since(t0).Microseconds())/1000, 1)
			w.Header().Set("X-Cache", "hit")
			writeRawJSON(w, http.StatusOK, body)
			return true
		}
		s.stats.cacheMisses.Add(1)
		w.Header().Set("X-Cache", "miss")
	}

	// Admission control: compare the request's expected total latency
	// (work already in flight × measured per-element service time) to
	// the budget and shed with 429 + Retry-After rather than queue work
	// that is doomed to miss it.
	if wait, ok := s.adm.admit(1); !ok {
		s.stats.sheds.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(wait))
		httpError(w, http.StatusTooManyRequests,
			"shed: expected wait %.1fms exceeds latency budget %.1fms",
			float64(wait.Microseconds())/1000, float64(s.opts.LatencyBudget.Microseconds())/1000)
		return true
	}
	s.adm.start(1)
	defer s.adm.done(1)

	var rep batchReply
	if p.sampled && p.seeded {
		// Seeded requests gain nothing from gathering — they always run
		// as individual seeded predictions — so skip the micro-batch
		// queue: no window wait, and a slow seeded pass never
		// head-of-line-blocks the batcher for unrelated traffic.
		rep = s.runOne(ctx, p)
	} else if s.opts.BatchWindow > 0 {
		// Only queue-bound requests feed their mode's arrival-rate
		// estimate (they are the population the gather window is sized
		// for), and only when the adaptive window consumes it — the
		// estimator's mutex has no business on the hot path of a
		// fixed-window deployment.
		if s.opts.AdaptiveWindow {
			s.arrivals[modeIdx(p.sampled)].observe(t0)
		}
		select {
		case s.reqCh <- p:
		case <-s.done:
			httpError(w, http.StatusServiceUnavailable, "server shutting down")
			return true
		case <-ctx.Done():
			s.replyCancelled(w, ctx, "cancelled while queued")
			return true
		}
		select {
		case rep = <-p.reply:
		case <-s.done:
			// Shutdown raced our enqueue past the batcher's final
			// drain; answer rather than wait on a reply that may
			// never come. The workspace stays out of the pool: the
			// batcher may still reply into it.
			httpError(w, http.StatusServiceUnavailable, "server shutting down")
			return false
		case <-ctx.Done():
			// The batcher will still complete (or prune) the work and
			// drop the buffered reply; the client has gone away or run
			// out of deadline. The workspace is leaked to the garbage
			// collector rather than pooled — the batcher may still
			// write into its buffers.
			s.replyCancelled(w, ctx, "cancelled")
			return false
		}
	} else {
		rep = s.runOne(ctx, p)
	}
	if rep.err != nil {
		if errors.Is(rep.err, context.DeadlineExceeded) {
			s.stats.deadlineExceeded.Add(1)
			httpError(w, http.StatusGatewayTimeout, "deadline exceeded: %v", rep.err)
			return true
		}
		if errors.Is(rep.err, context.Canceled) {
			httpError(w, http.StatusServiceUnavailable, "cancelled: %v", rep.err)
			return true
		}
		httpError(w, http.StatusInternalServerError, "predict: %v", rep.err)
		return true
	}

	mode := "exact"
	if p.sampled {
		mode = "sampled"
	}
	s.adm.observeSojourn(time.Since(t0))
	ms := float64(time.Since(t0).Microseconds()) / 1000
	s.stats.record(ms, rep.batchSize)
	ws.resp = appendPredictResponse(ws.resp[:0], rep.ids, rep.scores, mode, rep.batchSize, ms)
	if cacheable {
		// The cache owns its copy: ws.resp is workspace scratch and will
		// be overwritten by the next request this workspace serves.
		s.cache.put(key, append([]byte(nil), ws.resp...))
	}
	writeRawJSON(w, http.StatusOK, ws.resp)
	return true
}

// replyCancelled maps a dead request context to the right status: 504
// for a spent deadline (counted), 503 for a vanished client.
func (s *Server) replyCancelled(w http.ResponseWriter, ctx context.Context, what string) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.stats.deadlineExceeded.Add(1)
		httpError(w, http.StatusGatewayTimeout, "%s: deadline exceeded", what)
		return
	}
	httpError(w, http.StatusServiceUnavailable, "%s: %v", what, ctx.Err())
}

// retryAfterSeconds renders an expected wait as a Retry-After value:
// whole seconds, at least 1 (the header has no sub-second form).
func retryAfterSeconds(wait time.Duration) string {
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// batchPredictRequest is the POST /predict/batch body: a list of sparse
// feature vectors sharing one k / mode / optional seed / optional
// deadline. Bulk clients use it to hit the Predictor's multi-core
// PredictBatch fan-out directly — no micro-batch gathering window, no
// per-vector HTTP overhead. With a seed, element i is seeded
// deterministically from seed and i exactly as PredictBatchSampled
// documents. Decoded by decodeBatch (json.go) into pooled workspace
// buffers; the struct remains the wire-format declaration.
type batchPredictRequest struct {
	Batch []struct {
		Indices []int32   `json:"indices"`
		Values  []float32 `json:"values"`
	} `json:"batch"`
	K          int     `json:"k"`
	Sampled    bool    `json:"sampled"`
	Seed       *uint64 `json:"seed"`
	DeadlineMs float64 `json:"deadline_ms"`
}

type batchPredictResponse struct {
	Results []predictResult `json:"results"`
	Mode    string          `json:"mode"`
	Count   int             `json:"count"`
	Millis  float64         `json:"ms"`
}

type predictResult struct {
	IDs    []int32   `json:"ids"`
	Scores []float32 `json:"scores"`
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	ws := s.getWorkspace()
	s.processBatch(w, r, ws)
	// The bulk path is fully synchronous — nothing escapes the call —
	// so the workspace is always safe to pool again.
	s.putWorkspace(ws)
}

// processBatch serves one /predict/batch on a checked-out workspace:
// element component lists parse into per-slot buffers, the fan-out
// writes into the workspace's BatchResults, and the response encodes
// into the workspace's buffer — allocation-free at steady state for
// repeat batch shapes (modulo the fan-out goroutines on multi-core).
func (s *Server) processBatch(w http.ResponseWriter, r *http.Request, ws *reqWorkspace) {
	t0 := time.Now()
	var err error
	ws.body, err = readBody(r.Body, ws.body, 16*s.opts.MaxBodyBytes)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if err := decodeBatch(ws.body, ws); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if ws.nBatch == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if ws.nBatch > s.opts.BatchBodyMax {
		httpError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", ws.nBatch, s.opts.BatchBodyMax)
		return
	}
	k := ws.params.k
	if k <= 0 {
		k = s.opts.DefaultK
	}
	if k > s.opts.MaxK {
		k = s.opts.MaxK
	}
	budget, err := requestDeadline(ws.params.deadlineMs, r.Header)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	eng := s.eng.Load()
	dim := eng.net.Config().InputDim
	if cap(ws.xs) < ws.nBatch {
		ws.xs = make([]sparse.Vector, 0, ws.nBatch)
	}
	ws.xs = ws.xs[:0]
	for i := 0; i < ws.nBatch; i++ {
		if len(ws.elemIdx[i]) != len(ws.elemVal[i]) {
			httpError(w, http.StatusBadRequest, "element %d: %d indices but %d values", i, len(ws.elemIdx[i]), len(ws.elemVal[i]))
			return
		}
		if len(ws.elemIdx[i]) == 0 {
			httpError(w, http.StatusBadRequest, "element %d: empty feature vector", i)
			return
		}
		x, err := sparse.View(dim, ws.elemIdx[i], ws.elemVal[i])
		if err != nil {
			httpError(w, http.StatusBadRequest, "element %d: bad feature vector: %v", i, err)
			return
		}
		ws.xs = append(ws.xs, x)
	}
	xs := ws.xs

	// Admission weighs the bulk body by its element count: a 100-vector
	// batch displaces 100 queued singles' worth of service time.
	if wait, ok := s.adm.admit(int64(len(xs))); !ok {
		s.stats.sheds.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(wait))
		httpError(w, http.StatusTooManyRequests,
			"shed: expected wait %.1fms for %d elements exceeds latency budget %.1fms",
			float64(wait.Microseconds())/1000, len(xs), float64(s.opts.LatencyBudget.Microseconds())/1000)
		return
	}
	s.adm.start(int64(len(xs)))
	defer s.adm.done(int64(len(xs)))

	ctx := r.Context()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, t0.Add(budget))
		defer cancel()
	}

	mode := "exact"
	switch {
	case ws.params.sampled && ws.params.seeded:
		mode = "sampled"
		err = eng.pred.PredictBatchInto(ctx, xs, k, true, &ws.res, core.PredictOpts{Seed: ws.params.seed})
	case ws.params.sampled:
		mode = "sampled"
		err = eng.pred.PredictBatchInto(ctx, xs, k, true, &ws.res)
	default:
		err = eng.pred.PredictBatchInto(ctx, xs, k, false, &ws.res)
	}
	dur := time.Since(t0)
	if err == nil {
		s.adm.observe(dur, len(xs))
		s.adm.observeSojourn(dur)
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.stats.deadlineExceeded.Add(1)
			httpError(w, http.StatusGatewayTimeout, "deadline exceeded: %v", err)
			return
		}
		if errors.Is(err, context.Canceled) {
			httpError(w, http.StatusServiceUnavailable, "cancelled: %v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "predict batch: %v", err)
		return
	}

	ms := float64(dur.Microseconds()) / 1000
	s.stats.record(ms, len(xs))
	ws.resp = appendBatchResponse(ws.resp[:0], ws.res.IDs, ws.res.Scores, mode, ms)
	writeRawJSON(w, http.StatusOK, ws.resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	eng := s.eng.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"model":      eng.model,
		"reloads":    s.reloads.Load(),
		"generation": eng.gen,
		"input_dim":  eng.net.Config().InputDim,
		"classes":    eng.net.OutputDim(),
		"layers":     eng.net.NumLayers(),
		"params":     eng.net.NumParams(),
	})
}

// reloadRequest is the POST /reload body. An empty body (or empty model
// field) reloads the file the server was started from.
type reloadRequest struct {
	Model string `json:"model"`
}

// handleReload loads a model file, builds a fresh (Network, Predictor)
// pair and publishes it with one atomic swap — the serving-side analog of
// the core's shadow table rebuild. Requests already validated against the
// old engine finish on it; everything arriving after the swap sees the
// new model. The old pair is dropped to the garbage collector once its
// in-flight requests drain.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req reloadRequest
	// An empty body means "reload the default model"; io.EOF (rather
	// than ContentLength, which chunked encoding reports as -1) is how
	// the decoder says the body was empty.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes/4)).Decode(&req); err != nil && err != io.EOF {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	path := req.Model
	if path == "" {
		path = s.opts.ModelPath
	}
	if path == "" {
		httpError(w, http.StatusBadRequest, "no model path: server was started without -model and the request names none")
		return
	}

	eng, reloads, err := s.ReloadFrom(path)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"model":      path,
		"reloads":    reloads,
		"generation": eng.gen,
		"input_dim":  eng.net.Config().InputDim,
		"classes":    eng.net.OutputDim(),
		"params":     eng.net.NumParams(),
		"ms":         float64(time.Since(t0).Microseconds()) / 1000,
	})
}

// ReloadFrom loads the model at path, builds a fresh engine and
// publishes it with one atomic swap, returning the new engine and this
// reload's counter value (captured while the swap is still the latest,
// so concurrent reloads report distinct counts). The response cache is
// invalidated wholesale: entries are keyed by engine generation, so the
// purge is for memory, not correctness. It is the shared implementation
// behind POST /reload and SIGHUP.
func (s *Server) ReloadFrom(path string) (*engine, int64, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("opening model: %w", err)
	}
	net, err := core.LoadModel(f)
	f.Close()
	if err != nil {
		return nil, 0, fmt.Errorf("loading model: %w", err)
	}
	gen := s.reloads.Add(1)
	eng, err := newEngine(net, path, gen)
	if err != nil {
		s.reloads.Add(-1)
		return nil, 0, fmt.Errorf("building predictor: %w", err)
	}
	s.eng.Store(eng)
	if s.cache != nil {
		s.cache.purge()
	}
	return eng, gen, nil
}

// WatchSIGHUP wires the Unix convention to the same atomic engine swap
// as POST /reload: on SIGHUP the server re-reads the -model file it was
// started from. The returned stop function unregisters the handler.
func (s *Server) WatchSIGHUP(logf func(format string, args ...any)) (stop func()) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGHUP)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-sig:
				if s.opts.ModelPath == "" {
					logf("SIGHUP ignored: server was started without -model")
					continue
				}
				t0 := time.Now()
				eng, _, err := s.ReloadFrom(s.opts.ModelPath)
				if err != nil {
					logf("SIGHUP reload failed: %v", err)
					continue
				}
				logf("SIGHUP reloaded %s (%d params) in %.1fms",
					s.opts.ModelPath, eng.net.NumParams(),
					float64(time.Since(t0).Microseconds())/1000)
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(sig)
		close(done)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.stats.snapshot()
	fillGCStats(&snap)
	if s.opts.LatencyBudget > 0 {
		snap.LatencyBudgetMillis = float64(s.opts.LatencyBudget.Microseconds()) / 1000
		snap.ExpectedWaitMillis = float64(s.adm.expectedWait(0).Microseconds()) / 1000
	}
	if s.cache != nil {
		snap.CacheEntries = s.cache.len()
	}
	if s.opts.AdaptiveWindow {
		for m := range s.arrivals {
			ewma, primed := s.arrivals[m].interarrival()
			if !primed {
				continue
			}
			win := s.arrivals[m].window(s.opts.BatchWindow, s.opts.BatchMax)
			ms := &adaptiveModeStats{
				EWMAInterarrivalMillis: float64(ewma.Microseconds()) / 1000,
				WindowMillis:           float64(win.Microseconds()) / 1000,
			}
			if m == 1 {
				snap.AdaptiveSampled = ms
			} else {
				snap.AdaptiveExact = ms
			}
		}
	}
	writeJSON(w, http.StatusOK, snap)
}

// batchLoop gathers concurrent requests into micro-batches: the first
// request opens a window — fixed at BatchWindow, or derived per batch
// from the observed arrival rate with AdaptiveWindow — further requests
// join until the window closes or the batch fills, then the whole batch
// runs through one PredictBatch fan-out per mode.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	for {
		var first *pendingReq
		select {
		case first = <-s.reqCh:
		case <-s.done:
			s.drain()
			return
		}
		// The gather slice and timer are reused across batches (batchLoop
		// is the only goroutine touching them), so a steady-state batch
		// cycle allocates nothing.
		batch := append(s.gather[:0], first)
		window := s.opts.BatchWindow
		if s.opts.AdaptiveWindow {
			// The window is sized for the mode that opened the batch:
			// peers of the other mode may still join the gather, but the
			// wait is justified (or skipped) by the traffic the batch
			// will actually ride with.
			window = s.arrivals[modeIdx(first.sampled)].window(s.opts.BatchWindow, s.opts.BatchMax)
		}
		if window <= 0 {
			// No second arrival expected in time: take whatever is
			// already queued, but do not wait.
		gatherNow:
			for len(batch) < s.opts.BatchMax {
				select {
				case r := <-s.reqCh:
					batch = append(batch, r)
				default:
					break gatherNow
				}
			}
			s.gather = batch
			s.runBatch(batch)
			clear(batch)
			continue
		}
		if s.gatherTimer == nil {
			s.gatherTimer = time.NewTimer(window)
		} else {
			// Safe to Reset directly: after every gather the timer is
			// either consumed (fired) or stopped-and-drained below.
			s.gatherTimer.Reset(window)
		}
		fired := false
	gather:
		for len(batch) < s.opts.BatchMax {
			select {
			case r := <-s.reqCh:
				batch = append(batch, r)
			case <-s.gatherTimer.C:
				fired = true
				break gather
			case <-s.done:
				break gather
			}
		}
		if !fired && !s.gatherTimer.Stop() {
			<-s.gatherTimer.C
		}
		s.gather = batch
		s.runBatch(batch)
		// Drop request pointers so the retired gather slice does not pin
		// workspaces until the next batch overwrites it.
		clear(batch)
	}
}

// arrivalEstimator tracks an exponentially weighted moving average of
// the micro-batchable request inter-arrival time. The batcher sizes each
// gather window from it: at high arrival rates the window only needs to
// span one batch's worth of arrivals, and at low rates waiting is pure
// added latency because no peer request will show up anyway.
type arrivalEstimator struct {
	mu      sync.Mutex
	last    time.Time
	ewmaNS  float64
	samples int64
	// gapCapNS clamps any single observed gap before it feeds the EWMA:
	// an overnight idle period is one sample, not evidence that the next
	// burst arrives hours apart — unclamped, a single huge gap would
	// hold the window at zero for a hundred requests into the burst.
	// The cap stays well above the batch window so genuinely sparse
	// traffic still reads as sparse (window 0).
	gapCapNS float64
}

// arrivalAlpha is the EWMA smoothing factor: ~20 arrivals of memory,
// quick enough to track bursts, slow enough not to chase single gaps.
// gapCapWindows sizes the per-sample gap clamp in units of the maximum
// batch window.
const (
	arrivalAlpha  = 0.1
	gapCapWindows = 8
)

// observe feeds one arrival timestamp. Concurrent handlers can deliver
// timestamps out of order; an older-than-last arrival carries no gap
// information and must not rewind e.last (that would overstate the next
// gap by the burst's span — during exactly the bursts the window is
// sized for).
func (e *arrivalEstimator) observe(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last.IsZero() {
		e.last = now
		return
	}
	if !now.After(e.last) {
		return
	}
	d := float64(now.Sub(e.last))
	if e.gapCapNS > 0 && d > e.gapCapNS {
		d = e.gapCapNS
	}
	if e.samples == 0 {
		e.ewmaNS = d
	} else {
		e.ewmaNS += arrivalAlpha * (d - e.ewmaNS)
	}
	e.samples++
	e.last = now
}

// interarrival returns the current EWMA estimate and whether enough
// samples have accumulated to trust it.
func (e *arrivalEstimator) interarrival() (time.Duration, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return time.Duration(e.ewmaNS), e.samples >= 3
}

// window derives one gather window, clamped to [0, max]: unprimed
// estimators keep the configured fixed window; an expected inter-arrival
// beyond max means no peer will join in time, so the window collapses to
// zero; otherwise the window is just long enough to gather batchMax-1
// more requests at the observed rate.
func (e *arrivalEstimator) window(max time.Duration, batchMax int) time.Duration {
	ewma, primed := e.interarrival()
	if !primed {
		return max
	}
	if ewma > max {
		return 0
	}
	w := ewma * time.Duration(batchMax-1)
	return min(w, max)
}

// drain serves whatever is still queued at shutdown so no handler is
// left waiting on a reply that will never come.
func (s *Server) drain() {
	for {
		select {
		case r := <-s.reqCh:
			s.runBatch([]*pendingReq{r})
		default:
			return
		}
	}
}

// batchGroup keys one shared fan-out inside a gathered micro-batch:
// requests only ride the same PredictBatch call when they agree on both
// the inference mode and the engine they were validated against (a
// /reload landing mid-window splits the batch instead of mixing models).
type batchGroup struct {
	eng     *engine
	sampled bool
}

// groupContext derives the context a group's PredictBatch runs under:
// when every member carries a deadline the fan-out is cancelled at the
// latest one (members past their own deadline have already been pruned,
// so cancellation means the entire group is doomed); one open-ended
// member keeps the fan-out uncancellable, exactly as before deadlines
// existed.
func groupContext(group []*pendingReq) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, r := range group {
		if r.deadline.IsZero() {
			return context.Background(), func() {}
		}
		if r.deadline.After(latest) {
			latest = r.deadline
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// runBatch partitions a micro-batch by (engine, inference mode), runs one
// PredictBatch per group at the largest requested k, and trims each
// request's reply down to its own k. Requests already past their
// deadline are pruned with a DeadlineExceeded reply instead of computed —
// the doomed-work half of deadline propagation; the group's context
// (groupContext) is the cancelled-mid-flight half. Seeded sampled
// requests (normally dispatched straight to runOne by handlePredict, but
// handled here too so a seeded request can never be mis-batched) leave
// the shared fan-out: each runs as its own seeded single prediction on a
// state from its engine's quarantined seeded pool, reseeded from the
// request seed, so its result is a pure function of (input, seed) and
// never depends on what else happened to share the micro-batch.
func (s *Server) runBatch(batch []*pendingReq) {
	now := time.Now()
	// Partition into the server's reused group scratch: the group count
	// is tiny (modes × engines live in one window), so a linear key scan
	// replaces the per-batch map allocation.
	groups := s.groups[:0]
	seeded := s.seededReqs[:0]
nextReq:
	for _, r := range batch {
		if !r.deadline.IsZero() && now.After(r.deadline) {
			r.reply <- batchReply{err: context.DeadlineExceeded}
			continue
		}
		if r.sampled && r.seeded {
			seeded = append(seeded, r)
			continue
		}
		key := batchGroup{eng: r.eng, sampled: r.sampled}
		for gi := range groups {
			if groups[gi].key == key {
				groups[gi].reqs = append(groups[gi].reqs, r)
				continue nextReq
			}
		}
		if len(groups) < cap(groups) {
			// Reuse the retired group slot's request slice capacity.
			groups = groups[:len(groups)+1]
			g := &groups[len(groups)-1]
			g.key = key
			g.reqs = append(g.reqs[:0], r)
		} else {
			groups = append(groups, reqGroup{key: key, reqs: []*pendingReq{r}})
		}
	}
	// Bounded fan-out: each in-flight seeded prediction holds a pooled
	// worker state, so cap concurrency at GOMAXPROCS rather than one
	// goroutine (and state) per request.
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), len(seeded))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(seeded); i += workers {
				r := seeded[i]
				t0 := time.Now()
				var err error
				r.ids, r.scores, err = r.eng.pred.TopKWithScoresInto(
					context.Background(), r.x, r.k, true, r.ids, r.scores, core.PredictOpts{Seed: r.seed})
				if err == nil {
					s.adm.observe(time.Since(t0), 1)
				}
				r.reply <- batchReply{ids: r.ids, scores: r.scores, batchSize: 1, err: err}
			}
		}(w)
	}
	for gi := range groups {
		key, group := groups[gi].key, groups[gi].reqs
		xs := s.groupXs[:0]
		maxK := 0
		for _, r := range group {
			xs = append(xs, r.x)
			if r.k > maxK {
				maxK = r.k
			}
		}
		s.groupXs = xs
		ctx, cancel := groupContext(group)
		t0 := time.Now()
		// The fan-out writes into the batcher's reusable result storage;
		// each request then copies its trimmed slice into its own
		// workspace buffers before the reply, so nothing a request holds
		// aliases scratch the next micro-batch will overwrite.
		err := key.eng.pred.PredictBatchInto(ctx, xs, maxK, key.sampled, &s.batchRes)
		cancel()
		if err == nil {
			s.adm.observe(time.Since(t0), len(group))
		}
		for j, r := range group {
			// batchSize is the fan-out the request actually rode —
			// its mode group, not the whole gathered micro-batch.
			rep := batchReply{err: err, batchSize: len(group)}
			if err == nil {
				n := min(r.k, len(s.batchRes.IDs[j]))
				r.ids = append(r.ids[:0], s.batchRes.IDs[j][:n]...)
				r.scores = append(r.scores[:0], s.batchRes.Scores[j][:n]...)
				rep.ids, rep.scores = r.ids, r.scores
			}
			r.reply <- rep
		}
		// Drop request pointers so retired scratch does not pin
		// workspaces (and their engines) until the slot is reused.
		clear(groups[gi].reqs)
	}
	wg.Wait()
	clear(seeded)
	s.groups = groups[:0]
	s.seededReqs = seeded[:0]
}

// runOne serves a request without micro-batching, on its pinned engine,
// predicting straight into the request's own result buffers. The
// request context gates the pass: work whose deadline is already spent
// is refused before any compute happens.
func (s *Server) runOne(ctx context.Context, r *pendingReq) batchReply {
	t0 := time.Now()
	var err error
	if r.sampled && r.seeded {
		r.ids, r.scores, err = r.eng.pred.TopKWithScoresInto(ctx, r.x, r.k, true, r.ids, r.scores, core.PredictOpts{Seed: r.seed})
	} else {
		r.ids, r.scores, err = r.eng.pred.TopKWithScoresInto(ctx, r.x, r.k, r.sampled, r.ids, r.scores)
	}
	if err == nil {
		s.adm.observe(time.Since(t0), 1)
	}
	return batchReply{ids: r.ids, scores: r.scores, batchSize: 1, err: err}
}
