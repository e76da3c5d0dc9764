package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// statsRecorder accumulates request counts, micro-batch sizes, serving
// counters (shed, deadline-exceeded, cache) and a ring of recent
// latencies for percentile reporting. The ring holds 4096 samples — a
// P999 read needs at least 1000 for its rank to be a distinct sample.
type statsRecorder struct {
	mu         sync.Mutex
	requests   int64
	batchElems int64
	lat        [4096]float64
	pos        int
	filled     bool

	// sheds counts requests refused by admission control (429);
	// deadlineExceeded counts requests whose deadline expired before or
	// during compute (504). The load harness reads both from /stats to
	// separate goodput from throughput.
	sheds            atomic.Int64
	deadlineExceeded atomic.Int64
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
}

func (sr *statsRecorder) record(ms float64, batchSize int) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.requests++
	sr.batchElems += int64(batchSize)
	sr.lat[sr.pos] = ms
	sr.pos++
	if sr.pos == len(sr.lat) {
		sr.pos = 0
		sr.filled = true
	}
}

// adaptiveModeStats reports one mode's arrival estimator: the observed
// mean gap between batchable requests of that mode, and the gather
// window the next micro-batch opened by that mode would use. A zero
// WindowMillis is the designed sparse-traffic state (no peer expected in
// time, so don't wait), distinguishable from "estimator unprimed or
// feature disabled" because the whole struct is then absent.
type adaptiveModeStats struct {
	EWMAInterarrivalMillis float64 `json:"ewma_interarrival_ms"`
	WindowMillis           float64 `json:"window_ms"`
}

type statsSnapshot struct {
	Requests      int64   `json:"requests"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	P50Millis     float64 `json:"p50_ms"`
	P90Millis     float64 `json:"p90_ms"`
	P99Millis     float64 `json:"p99_ms"`
	P999Millis    float64 `json:"p999_ms"`
	// Shed / DeadlineExceeded are the tail-latency engineering counters:
	// requests refused by admission control and requests that ran out of
	// deadline. Cache* report the response cache (hits + misses counts
	// only cacheable requests).
	Shed             int64 `json:"shed"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	CacheEntries     int   `json:"cache_entries"`
	// LatencyBudgetMillis echoes the configured admission budget and
	// ExpectedWaitMillis the controller's current wait estimate; both 0
	// when admission control is off.
	LatencyBudgetMillis float64 `json:"latency_budget_ms,omitempty"`
	ExpectedWaitMillis  float64 `json:"expected_wait_ms,omitempty"`
	// AdaptiveExact / AdaptiveSampled report the per-mode arrival
	// estimators when adaptive windows are on and the mode's estimator
	// is primed. The modes are tracked separately: exact and sampled
	// traffic arrive at independent rates, and each micro-batch's gather
	// window is sized from the estimator of the mode that opened it.
	AdaptiveExact   *adaptiveModeStats `json:"adaptive_exact,omitempty"`
	AdaptiveSampled *adaptiveModeStats `json:"adaptive_sampled,omitempty"`
	// Runtime GC/heap gauges, read from runtime.MemStats at snapshot
	// time. GCPauseP99Millis is the p99 of the runtime's recent
	// stop-the-world pause ring (up to 256 GCs of memory); Mallocs and
	// TotalAllocBytes are cumulative, so the load harness differences
	// two snapshots to get allocations and bytes per request for a
	// sweep phase.
	GCPauseP99Millis float64 `json:"gc_pause_p99_ms"`
	GCPauseMaxMillis float64 `json:"gc_pause_max_ms"`
	HeapAllocBytes   uint64  `json:"heap_alloc_bytes"`
	NumGC            uint32  `json:"num_gc"`
	Mallocs          uint64  `json:"mallocs"`
	TotalAllocBytes  uint64  `json:"total_alloc_bytes"`
}

// fillGCStats populates the snapshot's runtime gauges. The pause p99 is
// computed over the PauseNs ring's valid window — min(NumGC, 256)
// samples — with the nearest-rank rule the latency percentiles use.
func fillGCStats(snap *statsSnapshot) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	snap.HeapAllocBytes = m.HeapAlloc
	snap.NumGC = m.NumGC
	snap.Mallocs = m.Mallocs
	snap.TotalAllocBytes = m.TotalAlloc
	n := int(m.NumGC)
	if n > len(m.PauseNs) {
		n = len(m.PauseNs)
	}
	if n == 0 {
		return
	}
	pauses := make([]float64, n)
	var maxNS uint64
	for i := 0; i < n; i++ {
		p := m.PauseNs[(int(m.NumGC)-1-i+len(m.PauseNs))%len(m.PauseNs)]
		pauses[i] = float64(p)
		if p > maxNS {
			maxNS = p
		}
	}
	sort.Float64s(pauses)
	snap.GCPauseP99Millis = percentile(pauses, 0.99) / 1e6
	snap.GCPauseMaxMillis = float64(maxNS) / 1e6
}

func (sr *statsRecorder) snapshot() statsSnapshot {
	sr.mu.Lock()
	n := sr.pos
	if sr.filled {
		n = len(sr.lat)
	}
	lats := append([]float64(nil), sr.lat[:n]...)
	snap := statsSnapshot{Requests: sr.requests}
	if sr.requests > 0 {
		snap.MeanBatchSize = float64(sr.batchElems) / float64(sr.requests)
	}
	sr.mu.Unlock()

	snap.Shed = sr.sheds.Load()
	snap.DeadlineExceeded = sr.deadlineExceeded.Load()
	snap.CacheHits = sr.cacheHits.Load()
	snap.CacheMisses = sr.cacheMisses.Load()

	if len(lats) > 0 {
		sort.Float64s(lats)
		snap.P50Millis = percentile(lats, 0.50)
		snap.P90Millis = percentile(lats, 0.90)
		snap.P99Millis = percentile(lats, 0.99)
		snap.P999Millis = percentile(lats, 0.999)
	}
	return snap
}

// percentile reads the p-quantile from ascending-sorted samples using the
// nearest-rank definition: the smallest sample with at least a fraction p
// of all samples at or below it, i.e. index ceil(p*n)-1. (Truncating
// p*n would index one rank too high — p50 of two samples must be the
// first, not the second.)
func percentile(sorted []float64, p float64) float64 {
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

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// encodeJSON renders v exactly as writeJSON would stream it (trailing
// newline included), so a cached body is byte-identical to the body the
// filling request received. Encoding into memory first lets a value
// encoding/json refuses become an error response instead of a
// truncated 200.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeRawJSON writes an already-encoded JSON body.
func writeRawJSON(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}
