package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// The benchmark's own open-loop driver. Arrivals follow a seeded Poisson
// schedule fixed before the phase starts, and every latency is timed from
// the request's scheduled arrival, so a stalled client or a queueing server
// delays the requests behind it in the numbers as it does for real users.
// (internal/loadgen times from the send; see README.md.)

// maxInFlight caps outstanding requests. An arrival due while the cap is
// reached is dropped and counted, never delayed: delaying would close the
// loop.
const maxInFlight = 256

// arrival is one scheduled request.
type arrival struct {
	due     time.Duration // from the phase start
	key     int
	sampled bool
}

// schedule draws a phase's arrivals: exponential gaps at qps, uniform keys,
// and each request sampled with probability sampledShare.
func schedule(seed uint64, qps float64, dur time.Duration, keys int, sampledShare float64) []arrival {
	r := rng.NewStream(seed, 0x5c4ed)
	var out []arrival
	for t := 0.0; ; {
		t += -math.Log(1-r.Float64()) / qps
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, arrival{due: due, key: r.Intn(keys), sampled: r.Float64() < sampledShare})
	}
}

// requestBodies pre-encodes the /predict body of every key, exact and
// sampled, so the driver thread formats nothing while it sends.
func requestBodies(keys []sparse.Vector, k int) (exact, sampled [][]byte) {
	for _, x := range keys {
		var b bytes.Buffer
		b.WriteString(`{"indices":[`)
		for i, idx := range x.Idx {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(idx)))
		}
		b.WriteString(`],"values":[`)
		for i, v := range x.Val {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(float64(v), 'g', -1, 32))
		}
		b.WriteString(`],"k":` + strconv.Itoa(k))
		exact = append(exact, []byte(b.String()+"}"))
		sampled = append(sampled, []byte(b.String()+`,"sampled":true}`))
	}
	return exact, sampled
}

// answer is one scheduled request's outcome as the client saw it.
type answer struct {
	due     time.Duration // scheduled arrival, from the phase start
	ms      float64       // completion minus scheduled arrival
	status  int           // HTTP status; 0 for a transport error or timeout, -1 for dropped
	sampled bool
}

// phase is what one phase of arrivals came to.
type phase struct {
	dur     time.Duration
	speed   float64   // the machine's speed the phase's latencies are scaled by
	answers []answer  // one per arrival, in schedule order, ms in calibrated time
	lateMS  []float64 // actual send minus scheduled arrival, per request sent
}

// load is one phase's offered load, in calibrated time.
type load struct {
	name string
	seed uint64
	qps  float64       // nominal: per calibrated second
	dur  time.Duration // of the whole phase
	// segment is how long arrivals run between samples of the machine's
	// speed. After each segment the answers still in flight are awaited, so
	// the calibration kernel delays none, and the next segment's rate is
	// set from every sample so far. The steady phase is cut by the second;
	// the overload phase is one segment, because a pause every second would
	// let the admission controller recover and make it another experiment.
	segment time.Duration
}

// target is the server under load and what to send it.
type target struct {
	client         *http.Client
	url            string
	exact, sampled [][]byte
}

// runPhase offers the load and waits for every answer. One goroutine keeps
// the clock and starts a goroutine per request.
func runPhase(t target, l load, sm *speedometer, tr *tracer) phase {
	ph := phase{dur: l.dur}
	var wg sync.WaitGroup
	inFlight := make(chan struct{}, maxInFlight) // semaphore
	parent := tr.add(l.name, -1, time.Now(), time.Now(), 0)
	for off := time.Duration(0); off < l.dur; off += l.segment {
		sm.sample()
		speed := sm.speed()
		sched := schedule(l.seed+uint64(off/l.segment), l.qps*speed, min(l.segment, l.dur-off), len(t.exact), sampledShare)
		answers := make([]answer, len(sched))
		start := time.Now()
		for i, a := range sched {
			ans := &answers[i]
			*ans = answer{due: off + a.due, sampled: a.sampled, status: -1}
			waitUntil(start.Add(a.due))
			select {
			case inFlight <- struct{}{}:
			default:
				continue
			}
			sentAt := time.Now()
			ph.lateMS = append(ph.lateMS, sentAt.Sub(start.Add(a.due)).Seconds()*1e3)
			body := t.exact[a.key]
			if a.sampled {
				body = t.sampled[a.key]
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				ans.status = post(t.client, t.url, body)
				done := time.Now()
				<-inFlight
				ans.ms = done.Sub(start.Add(a.due)).Seconds() * 1e3
				tr.add("driver.request", parent, sentAt, done, 1)
			}()
		}
		wg.Wait()
		ph.answers = append(ph.answers, answers...)
	}
	sm.sample()
	ph.speed = sm.speed()
	for i := range ph.answers {
		ph.answers[i].ms *= ph.speed
	}
	return ph
}

// counts of a phase's answers.
type counts struct {
	sent    int // arrivals scheduled, dropped ones included
	dropped int // not sent: in-flight cap reached
	ok      int // answered 200
	within  int // answered 200 within the latency limit
	refused int // answered 429 or 504: admission control and deadlines
	failed  int // any other status, transport errors, timeouts
}

func (ph phase) counts(limit time.Duration) counts {
	c := counts{sent: len(ph.answers)}
	for _, a := range ph.answers {
		switch a.status {
		case http.StatusOK:
			c.ok++
			if a.ms <= limit.Seconds()*1e3 {
				c.within++
			}
		case -1:
			c.dropped++
		case http.StatusTooManyRequests, http.StatusGatewayTimeout:
			c.refused++
		default:
			c.failed++
		}
	}
	return c
}

// latencies returns the 200s' latencies that keep passes.
func (ph phase) latencies(keep func(answer) bool) []float64 {
	var ms []float64
	for _, a := range ph.answers {
		if a.status == http.StatusOK && keep(a) {
			ms = append(ms, a.ms)
		}
	}
	return ms
}

// perSecond cuts the phase into one-second windows by scheduled arrival
// and returns f of each full window. A burst of interference from a
// neighbouring VM lasts a second or two and spoils the windows it touches;
// the median over windows reads the undisturbed second, which a statistic
// over the whole phase (a p99 is 1% of it) does not.
func (ph phase) perSecond(f func(window []answer) float64) []float64 {
	if ph.dur < time.Second {
		return []float64{f(ph.answers)}
	}
	var out []float64
	lo := 0
	for w := time.Second; w <= ph.dur; w += time.Second {
		hi := lo
		for hi < len(ph.answers) && ph.answers[hi].due < w {
			hi++
		}
		out = append(out, f(ph.answers[lo:hi]))
		lo = hi
	}
	return out
}

// waitUntil sleeps to just short of t and yields the rest, so the send is
// late by scheduling noise only.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 300*time.Microsecond {
			time.Sleep(d - 200*time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// post sends one request and returns its status, 0 for a transport error
// or timeout. The body is read to the end so the connection is reused.
func post(client *http.Client, url string, body []byte) int {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0
	}
	return resp.StatusCode
}
