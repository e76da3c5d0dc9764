package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// admission implements load shedding against a latency budget. The
// controller tracks how many prediction elements are in flight (admitted
// but not yet answered) and an EWMA of the measured per-element service
// time; a new request's expected total latency is the work ahead of it
// times that service time. When the expectation exceeds the budget the
// request is shed immediately with 429 — under open-loop overload every
// queue grows without bound, and the only way to keep the tail of the
// admitted requests inside the budget is to refuse the requests that
// would have formed the tail.
//
// Two rules keep the controller from mistaking a stall for overload. A
// backlog over the budget is a *burst* until it has stood for a grace
// period: a process that was descheduled for S ms resumes to S ms worth of
// arrivals at once and one S-ms service sample, and at moderate load that
// backlog drains by itself faster than refusing it would help — so it is
// admitted, and only a backlog that outlives the grace (or returns within a
// grace of the last refusal) is overload and is shed as described above.
// And concurrency never falls below one: an idle server admits a single
// request whatever the estimates say, because a controller that refuses
// with nothing in flight gets no completions to correct its estimates with
// and stays shut for good.
type admission struct {
	// budget is the configured latency budget; 0 disables shedding.
	budget time.Duration
	// inflight counts admitted-but-unanswered prediction elements: one
	// per /predict request, the body's element count for /predict/batch.
	inflight atomic.Int64

	mu sync.Mutex
	// svcNS is the EWMA of per-element service time in nanoseconds,
	// measured over completed PredictBatchInto runs (batch wall time /
	// batch size), so it already reflects the fan-out parallelism and
	// micro-batch amortization the queue drains at.
	svcNS   float64
	samples int64
	// sojournNS is a peak-hold envelope over whole-request sojourn
	// (admit to reply) in nanoseconds, decaying by half per budget of
	// elapsed time. inflight×svc models the queue from first principles
	// but misses everything outside the fan-out itself — gather windows,
	// encode/decode, scheduler pressure — which is exactly what blows up
	// first on a saturated machine. The sojourn envelope is the measured
	// truth of what the slowest recently admitted requests experienced;
	// when it exceeds the budget, new arrivals will fare no better and
	// are shed. A peak rather than a mean because the budget bounds the
	// tail: by the time the average sojourn crosses the budget, the p99
	// is far past it.
	sojournNS      float64
	sojournSamples int64
	lastSojourn    time.Time
	// shedding is the hysteresis latch: once the controller has shed, it
	// keeps shedding until the expected wait falls to half the budget,
	// not merely under it. Without the latch the controller re-admits
	// the moment the estimate dips below budget — straight into a queue
	// that has barely drained — and the admitted tail oscillates around
	// twice the budget instead of under it.
	shedding bool
	// overSince is when the expected wait first exceeded the threshold
	// and has not since fallen back to it (zero: not over); lastShed is
	// the most recent refusal. Together they tell a burst from overload:
	// see admit.
	overSince time.Time
	lastShed  time.Time

	// now is the clock; nil means time.Now. Tests substitute a fake.
	now func() time.Time
}

// graceBudgets is the grace period in budgets: how long a backlog over
// the budget is admitted as a burst before it counts as overload. A stall
// of S ms at load factor ρ leaves a backlog that clears in about
// ρ/(1−ρ)·S, and the sojourn envelope needs a few budgets more to decay.
// TestAdmissionAbsorbsStall's script (1.2 ms/element, 0.42 load, 25 ms
// budget) refuses nothing after a 300 ms stall from nine budgets up (72 /
// 42 / 9 requests at four / six / eight), so ten leaves one budget of
// margin. The price is paid at the onset of a real overload, whose first
// grace is served late rather than refused. Not a knob.
const graceBudgets = 10

func (a *admission) clock() time.Time {
	if a.now != nil {
		return a.now()
	}
	return time.Now()
}

// svcAlpha is the service-time EWMA smoothing factor: enough memory to
// ride out one anomalous batch, fresh enough to track a regime change
// (e.g. an engine swap to a bigger model) within tens of batches.
const svcAlpha = 0.1

// observe feeds one completed fan-out: wall-clock duration over n
// elements.
func (a *admission) observe(dur time.Duration, n int) {
	if n <= 0 {
		return
	}
	per := float64(dur) / float64(n)
	a.mu.Lock()
	if a.samples == 0 {
		a.svcNS = per
	} else {
		a.svcNS += svcAlpha * (per - a.svcNS)
	}
	a.samples++
	a.mu.Unlock()
}

// observeSojourn feeds one completed request's admit-to-reply time into
// the peak-hold envelope. Shed, cancelled and deadline-expired requests
// are not fed: their truncated sojourns say nothing about what an
// admitted request would have experienced.
func (a *admission) observeSojourn(dur time.Duration) {
	a.mu.Lock()
	a.decaySojournLocked()
	if f := float64(dur); f > a.sojournNS {
		a.sojournNS = f
	}
	a.sojournSamples++
	a.mu.Unlock()
}

// decaySojournLocked applies the elapsed-time decay (half-life = one
// budget) and stamps the envelope current. The decay is what lets shed
// traffic probe its way back in: when shedding (or an idle period)
// starves the server of completions, nothing would ever feed a lower
// value, and without decay the controller would latch shut.
func (a *admission) decaySojournLocked() {
	now := a.clock()
	if a.budget > 0 && !a.lastSojourn.IsZero() {
		if idle := now.Sub(a.lastSojourn); idle > 0 {
			a.sojournNS *= math.Pow(0.5, float64(idle)/float64(a.budget))
		}
	}
	a.lastSojourn = now
}

func (a *admission) sojourn() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sojournSamples == 0 {
		return 0
	}
	a.decaySojournLocked()
	return time.Duration(a.sojournNS)
}

// serviceNS returns the per-element service estimate, or 0 while
// unprimed (no completed work measured yet — admit everything; the first
// completions prime it within one batch).
func (a *admission) serviceNS() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.samples == 0 {
		return 0
	}
	return a.svcNS
}

// expectedWait estimates the total latency of n new elements joining
// now: the larger of the first-principles queue model (everything in
// flight plus the new work, drained at the measured per-element rate)
// and the measured sojourn of recently completed requests. The model
// reacts instantly to a building queue; the sojourn catches overheads
// the model cannot see.
func (a *admission) expectedWait(n int64) time.Duration {
	svc := a.serviceNS()
	if svc <= 0 {
		return 0
	}
	wait := time.Duration(float64(a.inflight.Load()+n) * svc)
	return max(wait, a.sojourn())
}

// admit decides whether n new elements fit inside the budget. It returns
// the expected wait so a shed response can carry an honest Retry-After.
//
//   - At or under the threshold: admit. The threshold is the budget, or
//     half of it while the shedding latch is set (hysteresis: having shed,
//     the controller re-opens only once the queue has genuinely drained).
//   - A single element arriving at an idle server: admit, and clear the
//     latch — minimum concurrency one.
//   - Over the threshold: a burst while the condition is younger than the
//     grace and nothing was shed within the last grace — admit; otherwise
//     overload — set the latch and refuse. Sustained overload sheds
//     continuously, so the grace is paid once at its onset and does not
//     re-arm until the controller has gone a whole grace without shedding.
//
// The check is advisory (admit/start are not one atomic step); the
// estimate only needs to be right in aggregate for the tail to stay
// bounded.
func (a *admission) admit(n int64) (time.Duration, bool) {
	if a.budget <= 0 {
		return 0, true
	}
	wait := a.expectedWait(n)
	now := a.clock()
	a.mu.Lock()
	defer a.mu.Unlock()
	threshold := a.budget
	if a.shedding {
		threshold = a.budget / 2
	}
	if wait <= threshold {
		a.shedding = false
		a.overSince = time.Time{}
		return wait, true
	}
	if n == 1 && a.inflight.Load() == 0 {
		a.shedding = false
		return wait, true
	}
	if a.overSince.IsZero() {
		a.overSince = now
	}
	grace := graceBudgets * a.budget
	if now.Sub(a.overSince) < grace && (a.lastShed.IsZero() || now.Sub(a.lastShed) >= grace) {
		return wait, true
	}
	a.shedding = true
	a.lastShed = now
	return wait, false
}

// start and done bracket admitted work.
func (a *admission) start(n int64) { a.inflight.Add(n) }
func (a *admission) done(n int64)  { a.inflight.Add(-n) }
