package serve

import (
	"testing"
	"time"
)

// fakeClock is the controller tests' time source: they advance it by hand,
// so nothing here sleeps or depends on the machine.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// admitOldRule is the admission rule before the burst/overload distinction
// and the concurrency floor, kept here only as the reference the stall
// test must beat: shed the moment the expected wait exceeds the threshold,
// latch until it halves.
func admitOldRule(a *admission, n int64) bool {
	wait := a.expectedWait(n)
	threshold := a.budget
	if a.shedding {
		threshold = a.budget / 2
	}
	a.shedding = wait > threshold
	return !a.shedding
}

// admissionSim drives an admission controller with a single FIFO server on
// the fake clock: arrivals every gap, each admitted request served for svc
// in admission order, every completion fed back as the server feeds it.
type admissionSim struct {
	a     *admission
	clk   *fakeClock
	admit func(n int64) bool
	svc   time.Duration

	queue       []time.Time // admit times; the head is in service
	headDone    time.Time
	nextArrival time.Time

	admitted, refused int
	firstRefusal      time.Time
	// onAdmit, when set, sees every admission decision before it takes
	// effect.
	onAdmit func(ok bool)
}

func newAdmissionSim(budget, svc time.Duration, rule func(*admission, int64) bool) *admissionSim {
	clk := newFakeClock()
	a := &admission{budget: budget, now: clk.now}
	a.observe(svc, 1) // primed
	s := &admissionSim{a: a, clk: clk, svc: svc, nextArrival: clk.t}
	s.admit = func(n int64) bool { return rule(a, n) }
	return s
}

func admitNewRule(a *admission, n int64) bool { _, ok := a.admit(n); return ok }

func (s *admissionSim) arrive() {
	ok := s.admit(1)
	if s.onAdmit != nil {
		s.onAdmit(ok)
	}
	if !ok {
		if s.refused == 0 {
			s.firstRefusal = s.clk.t
		}
		s.refused++
		return
	}
	s.admitted++
	s.a.start(1)
	if len(s.queue) == 0 {
		s.headDone = s.clk.t.Add(s.svc)
	}
	s.queue = append(s.queue, s.clk.t)
}

func (s *admissionSim) complete() {
	s.a.observe(s.svc, 1)
	s.a.observeSojourn(s.clk.t.Sub(s.queue[0]))
	s.a.done(1)
	s.queue = s.queue[1:]
	if len(s.queue) > 0 {
		s.headDone = s.clk.t.Add(s.svc)
	}
}

// run advances d of simulated time with one arrival every gap.
func (s *admissionSim) run(d, gap time.Duration) {
	end := s.clk.t.Add(d)
	for {
		next, completion := s.nextArrival, false
		if len(s.queue) > 0 && !s.headDone.After(next) {
			next, completion = s.headDone, true
		}
		if next.After(end) {
			s.clk.t = end
			return
		}
		s.clk.t = next
		if completion {
			s.complete()
		} else {
			s.arrive()
			s.nextArrival = next.Add(gap)
		}
	}
}

// stall freezes the server for d — what a descheduled process looks like
// from inside: the clock jumps, the fan-out that spanned the stall reports
// a d-long service time and sojourn, and the arrivals of the whole stall
// are accepted in the same instant.
func (s *admissionSim) stall(d, gap time.Duration) {
	s.clk.advance(d)
	if len(s.queue) > 0 {
		s.headDone = s.headDone.Add(d)
	}
	s.a.observe(d, 1)
	s.a.observeSojourn(d)
	for n := int(d / gap); n > 0; n-- {
		s.arrive()
	}
	s.nextArrival = s.clk.t.Add(gap)
}

const (
	simBudget = 25 * time.Millisecond
	simSvc    = 1200 * time.Microsecond
	simGap    = time.Second / 350 // 0.42x capacity, the serving benchmark's steady phase
)

// TestAdmissionAbsorbsStall: a server at 0.4x load that loses the CPU for
// 100–300 ms refuses nothing — the backlog a stall leaves is a burst that
// drains by itself — while the old rule refuses on the same script (at
// 200 ms and beyond, everything, for good).
func TestAdmissionAbsorbsStall(t *testing.T) {
	for _, stall := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond} {
		script := func(rule func(*admission, int64) bool) (*admissionSim, int) {
			s := newAdmissionSim(simBudget, simSvc, rule)
			s.run(time.Second, simGap)
			if s.refused != 0 {
				t.Fatalf("refused %d requests at 0.4x load before any stall", s.refused)
			}
			for i := 0; i < 3; i++ {
				s.stall(stall, simGap)
				s.run(1500*time.Millisecond, simGap)
			}
			tail := s.refused
			s.run(time.Second, simGap)
			return s, s.refused - tail
		}
		s, _ := script(admitNewRule)
		if s.refused != 0 {
			t.Errorf("stall %v: refused %d of %d requests, want 0", stall, s.refused, s.refused+s.admitted)
		}
		if s.a.shedding || !s.a.overSince.IsZero() {
			t.Errorf("stall %v: controller still latched (%v) or over (%v) a second after the last backlog drained", stall, s.a.shedding, s.a.overSince)
		}
		old, oldTail := script(admitOldRule)
		if old.refused == 0 {
			t.Errorf("stall %v: the old rule refused nothing — the script does not exercise the defect", stall)
		}
		if stall >= 200*time.Millisecond && oldTail == 0 {
			t.Errorf("stall %v: the old rule recovered; it is expected to stay shut (refused %d)", stall, old.refused)
		}
		t.Logf("stall %v: new rule refused %d of %d, old rule %d of %d (%d in the final idle second)",
			stall, s.refused, s.refused+s.admitted, old.refused, old.refused+old.admitted, oldTail)
	}
}

// TestAdmissionBoundsOverload: at 2x the service rate the grace is paid
// once — refusals begin one grace after the backlog first exceeds the
// budget — and from the first refusal on nothing is admitted into a queue
// over the budget again (the grace never re-arms) while the server stays
// busy.
func TestAdmissionBoundsOverload(t *testing.T) {
	s := newAdmissionSim(simBudget, simSvc, admitNewRule)
	grace := graceBudgets * simBudget
	start := s.clk.t
	var firstOver time.Time
	admittedAfter, overAfter := 0, 0
	s.onAdmit = func(ok bool) {
		if firstOver.IsZero() && !s.a.overSince.IsZero() {
			firstOver = s.a.overSince
		}
		if ok && s.refused > 0 {
			admittedAfter++
			if work := time.Duration(s.a.inflight.Load()+1) * s.svc; work > simBudget {
				overAfter++
			}
		}
	}
	s.run(3*time.Second, simSvc/2)
	if s.refused == 0 {
		t.Fatal("2x overload for 3 s refused nothing")
	}
	if firstOver.IsZero() || s.firstRefusal.Sub(firstOver) > grace+simBudget {
		t.Fatalf("first refusal %v after the backlog first exceeded the budget, want within the %v grace", s.firstRefusal.Sub(firstOver), grace)
	}
	if s.firstRefusal.Sub(firstOver) < grace {
		t.Fatalf("first refusal %v after the backlog exceeded the budget: the burst grace (%v) was not given", s.firstRefusal.Sub(firstOver), grace)
	}
	if overAfter != 0 {
		t.Fatalf("%d of %d requests admitted after the first refusal joined more than a budget of work: the grace re-armed", overAfter, admittedAfter)
	}
	// Shed some, not all: after the onset the server keeps answering at
	// close to its service rate.
	remaining := 3*time.Second - s.firstRefusal.Sub(start)
	if capacity := int(remaining / simSvc); admittedAfter < capacity*8/10 {
		t.Fatalf("admitted %d requests in the %v after the first refusal, capacity is %d", admittedAfter, remaining, capacity)
	}
	t.Logf("first refusal %v after onset; then admitted %d, refused %d", s.firstRefusal.Sub(firstOver), admittedAfter, s.refused)
}

// TestAdmissionNeverShut: estimates inflated twelve budgets over (one
// stalled fan-out on an otherwise idle server) cannot close an idle
// controller — a single request is always admitted when nothing is in
// flight — but they still refuse work behind work, and a bulk body is
// judged by its size.
func TestAdmissionNeverShut(t *testing.T) {
	clk := newFakeClock()
	a := &admission{budget: simBudget, now: clk.now}
	a.observe(12*simBudget, 1)
	a.observeSojourn(12 * simBudget)
	grace := graceBudgets * simBudget

	// Work in flight, past its grace: refused, and the latch sets.
	a.start(1)
	if _, ok := a.admit(1); !ok {
		t.Fatal("a backlog over the budget was refused before its grace")
	}
	clk.advance(grace)
	a.observeSojourn(12 * simBudget) // the stalled work is still what completes
	if _, ok := a.admit(1); ok {
		t.Fatal("admitted behind in-flight work with the estimate 12 budgets over, past the grace")
	}
	if !a.shedding {
		t.Fatal("refusal did not set the latch")
	}
	a.done(1)

	// Idle: one request at a time gets through, however often it is asked.
	for i := 0; i < 3; i++ {
		a.observeSojourn(12 * simBudget)
		wait, ok := a.admit(1)
		if !ok {
			t.Fatalf("idle controller refused a single request (attempt %d, expected wait %v)", i, wait)
		}
		if a.shedding {
			t.Fatalf("attempt %d: latch still set after an idle admission", i)
		}
	}

	// An idle bulk request is not covered by the floor: 2 x svc is over.
	if _, ok := a.admit(2); ok {
		t.Fatal("idle /predict/batch of 2 admitted with 2 x svc = 24 budgets")
	}
	// ...and is admitted once the estimate says it fits.
	for i := 0; i < 200; i++ {
		a.observe(simSvc, 1)
	}
	clk.advance(10 * simBudget) // the sojourn envelope decays
	if wait, ok := a.admit(2); !ok {
		t.Fatalf("idle batch of 2 refused at expected wait %v, budget %v", wait, simBudget)
	}
}
