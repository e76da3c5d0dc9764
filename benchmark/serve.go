package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// serve_open's fixed operating point. The rates were calibrated once on the
// reference box (README.md has the probe) and are constants from then on: a
// rate re-derived per run would move with the code under test and hide the
// change it is meant to show.
const (
	steadyQPS    = 350.0  // 0.4 x mixed capacity, rounded to 50
	overloadQPS  = 1700.0 // 2 x mixed capacity, rounded to 100
	latencyLimit = 20 * time.Millisecond
	sampledShare = 0.5
	serveKeys    = 2048
	topK         = 5
)

// serveSpec is serve_open's shape; like trainSpec, only lengths follow
// -seconds.
type serveSpec struct {
	train                    trainSpec
	keys                     int
	steadyQPS, overloadQPS   float64
	warmup, steady, overload time.Duration
	starts                   int // server starts; setup_s and the cold start are their medians
}

func serveSpecFor(o options) serveSpec {
	if o.toy {
		t, _ := trainSpecFor("train_converge", o)
		return serveSpec{
			train: t, keys: 64, steadyQPS: 100, overloadQPS: 400,
			warmup: 100 * time.Millisecond, steady: time.Second, overload: time.Second, starts: 1,
		}
	}
	// Delicious-shaped @0.1 (20.5K classes) with slide-train's default
	// hash settings, trained briefly: serving cost depends on the shape and
	// on tables built from trained rather than random rows, not on how
	// good the model is (at this scale P@1 sits on the majority-class
	// plateau whatever the budget).
	p := dataset.Delicious200K(0.1, o.seed)
	t := trainSpec{
		profile: p,
		layer:   core.LayerConfig{Hash: lsh.KindSimhash, K: 6, L: 20, Beta: p.NumClasses / 20},
		lr:      1e-3, batch: 128, threads: 2, shards: 1, iterations: 20,
	}
	t.profile.TrainSize, t.profile.TestSize = int(t.iterations)*t.batch, serveKeys
	sec := func(nominal float64) time.Duration {
		return time.Duration(nominal * float64(o.seconds) / nominalSeconds * float64(time.Second))
	}
	return serveSpec{
		train: t, keys: serveKeys, steadyQPS: steadyQPS, overloadQPS: overloadQPS,
		warmup: 1500 * time.Millisecond, steady: sec(8), overload: sec(7), starts: 3,
	}
}

// server is the slide-serve child process.
type server struct {
	cmd     *exec.Cmd
	url     string
	done    chan struct{} // closed once the child has been waited for
	waitErr error         // cmd.Wait's result, valid after done
}

// buildServer compiles cmd/slide-serve into dir. It is toolchain time, not
// the system's, and is left out of setup_s.
func buildServer(dir string) (string, error) {
	bin := filepath.Join(dir, "slide-serve")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/slide-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build slide-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// startServer starts the child on a free loopback port with one processor,
// its defaults plus a 25 ms admission budget and no response cache, and
// returns once /healthz answers.
func startServer(bin, model string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-model", model, "-addr", addr, "-latency-budget", "25ms")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return nil, fmt.Errorf("slide-serve exited before it was healthy: %v\n%s", s.waitErr, logs.String())
		default:
		}
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return nil, fmt.Errorf("slide-serve not healthy after 60 s\n%s", logs.String())
}

// stop asks the child to shut down and reports whether it drained and
// exited cleanly.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.done:
		return s.waitErr
	case <-time.After(15 * time.Second):
		s.kill()
		return fmt.Errorf("slide-serve did not exit within 15 s of SIGTERM")
	}
}

// kill is for the error paths: the child must not outlive the benchmark.
func (s *server) kill() {
	select {
	case <-s.done:
	default:
		s.cmd.Process.Kill()
		<-s.done
	}
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	Requests         int64   `json:"requests"`
	MeanBatchSize    float64 `json:"mean_batch_size"`
	P50Millis        float64 `json:"p50_ms"`
	P99Millis        float64 `json:"p99_ms"`
	Shed             int64   `json:"shed"`
	DeadlineExceeded int64   `json:"deadline_exceeded"`
	ExpectedWaitMS   float64 `json:"expected_wait_ms"`
	GCPauseP99Millis float64 `json:"gc_pause_p99_ms"`
	NumGC            uint32  `json:"num_gc"`
	Mallocs          uint64  `json:"mallocs"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	resp, err := http.Get(s.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// predictReply is the part of a /predict answer the checks compare.
type predictReply struct {
	IDs    []int32   `json:"ids"`
	Scores []float32 `json:"scores"`
}

func (s *server) predict(body []byte) (predictReply, error) {
	var rep predictReply
	resp, err := http.Post(s.url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return rep, fmt.Errorf("/predict answered %d: %s", resp.StatusCode, b)
	}
	return rep, json.NewDecoder(resp.Body).Decode(&rep)
}

// runServe is the serve_open workload.
func runServe(o options, tr *tracer, r *report) error {
	s := serveSpecFor(o)
	bin, err := buildServer(o.outDir)
	if err != nil {
		return err
	}

	// Set-up: data, a briefly trained model, its file, a healthy server.
	// The model is made once; saving and starting repeat, each start a
	// cold one, and setup_s is the one-off part plus their median.
	runtime.GOMAXPROCS(2)
	model := filepath.Join(o.outDir, fmt.Sprintf("model-%d.slide", os.Getpid()))
	defer os.Remove(model)
	sm := speedometer{threads: 1}
	sm.sample()
	t0 := time.Now()
	tenv, err := setupTrain(s.train, o, tr)
	if err != nil {
		return err
	}
	ds, net := tenv.ds, tenv.nets[0]
	tc := tenv.tcs[0]
	tc.EvalEvery, tc.SkipFinalEval = 0, true
	var trainErr error
	tr.do("core.train", -1, func() { _, trainErr = net.Train(ds.Train, nil, tc) })
	if trainErr != nil {
		return trainErr
	}
	onceS := time.Since(t0).Seconds()
	sm.sample()
	onceS *= sm.speed() // calibrated, like every time below
	starts := s.starts
	if o.trace {
		starts = 1
	}
	var srv *server
	var startS, coldS []float64
	for i := range starts {
		if i > 0 {
			if err := srv.stop(); err != nil {
				return fmt.Errorf("restart: %w", err)
			}
		}
		sm := speedometer{threads: 1}
		sm.sample()
		t0 := time.Now()
		if err := saveModel(net, model); err != nil {
			return err
		}
		t1 := time.Now()
		tr.add("core.save_model", -1, t0, t1, 1)
		if srv, err = startServer(bin, model); err != nil {
			return err
		}
		defer srv.kill()
		t2 := time.Now()
		tr.add("serve.cold_start", -1, t1, t2, 1)
		sm.sample()
		startS = append(startS, t2.Sub(t0).Seconds()*sm.speed())
		coldS = append(coldS, t2.Sub(t1).Seconds()*sm.speed())
	}

	keys := make([]sparse.Vector, s.keys)
	for i := range keys {
		keys[i] = ds.Test[i%len(ds.Test)].Features
	}
	exact, sampled := requestBodies(keys, topK)
	if err := checkAnswers(srv, model, keys, exact, sampled, r); err != nil {
		return err
	}

	// One driver thread against a one-processor server: the box has two
	// cores, and a driver that competes with the server for one measures
	// itself. The phases run in calibrated time: the offered rate is the
	// nominal rate x the machine's speed, and latencies are scaled by the
	// speed afterwards. At half speed the server has half its capacity, and
	// the nominal 350 qps would be 0.8 of it, not 0.4: a different
	// experiment, not a slower one.
	t := target{
		client: &http.Client{
			Timeout:   2 * time.Second,
			Transport: &http.Transport{MaxIdleConns: maxInFlight, MaxIdleConnsPerHost: maxInFlight},
		},
		url: srv.url + "/predict", exact: exact, sampled: sampled,
	}
	defer t.client.CloseIdleConnections()
	runtime.GOMAXPROCS(1)
	phases := speedometer{threads: 1} // one for the whole measurement: every sample steadies the next rate
	for range 3 {
		phases.sample()
	}
	runPhase(t, load{name: "warmup", seed: o.seed ^ 0x100, qps: s.steadyQPS, dur: s.warmup, segment: time.Second}, &phases, nil)
	before, err := srv.stats()
	if err != nil {
		return err
	}
	steady := runPhase(t, load{name: "phase.steady", seed: o.seed ^ 0x200, qps: s.steadyQPS, dur: s.steady, segment: time.Second}, &phases, tr)
	mid, err := srv.stats()
	if err != nil {
		return err
	}
	over := runPhase(t, load{name: "phase.overload", seed: o.seed ^ 0x300, qps: s.overloadQPS, dur: s.overload, segment: s.overload}, &phases, tr)
	after, err := srv.stats()
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(2)
	sc, oc := steady.counts(latencyLimit), over.counts(latencyLimit)
	fmt.Fprintf(os.Stderr, "  steady   (machine speed %.3f): %+v\n  overload (machine speed %.3f): %+v\n", steady.speed, sc, over.speed, oc)

	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	r.check(srv.stop() == nil, "slide-serve did not exit cleanly on SIGTERM")

	// Operations are the steady phase's requests: anything but a 200 is a
	// failure there. Overload refusals are by design and are counted in the
	// goodput, not here.
	r.Attempted = sc.sent
	r.Failed = sc.sent - sc.ok
	late := percentile(steady.lateMS, 0.99)
	if late > 5 {
		r.note("INVALID steady phase: the driver sent %.1f ms late at p99 (limit 5 ms); its latencies measure the driver", late)
	}
	isExact := func(a answer) bool { return !a.sampled }
	isSampled := func(a answer) bool { return a.sampled }
	// The two modes differ severalfold in cost and arrive in equal
	// shares, so the median of the mix sits on the edge between them and
	// jumps from one to the other; each mode's own median does not.
	exactP50, sampledP50 := median(steady.latencies(isExact)), median(steady.latencies(isSampled))
	p50 := (exactP50 + sampledP50) / 2
	// Answers per calibrated second of the overload phase, late ones
	// included (loadgen's goodput). Counting only those within the limit
	// reads the seed's admission control on a knife edge: it holds the queue
	// at its 25 ms budget, the median admitted answer takes 22 ms, and the
	// count within 20 ms moved 245 to 425 per second between ten runs. That
	// count is the traced run's serve.overload_goodput_qps.
	answered := float64(oc.ok) / (s.overload.Seconds() * over.speed)
	r.set("setup_s", onceS+median(startS))
	r.set("throughput_per_s", answered)
	r.set("time_to_target_s", median(coldS))
	r.set("step_p50_ms", p50)
	r.set("peak_rss_mb", rss)
	if !o.trace {
		return nil
	}

	// Per-layer latencies of the two phases are in the phases' calibrated
	// time (the experiment ran in it); everything else is as measured.
	r.set("machine.speed", steady.speed)
	r.set("dataset.generate_s", tenv.generateS)
	r.set("core.new_network_s", tenv.newNetworkS)
	r.set("serve.cold_start_s", median(coldS))
	all := func(answer) bool { return true }
	r.set("serve.p50_ms", median(steady.latencies(all)))
	// The tail is read per one-second window (at 350 requests a window,
	// p95 is the highest percentile with ten samples beyond it) and the
	// median window reported; p99 is over the whole phase, for comparison.
	r.set("serve.p95_ms", median(steady.perSecond(func(w []answer) float64 { return percentile(phase{answers: w}.latencies(all), 0.95) })))
	r.set("serve.p99_ms", percentile(steady.latencies(all), 0.99))
	r.set("serve.slo_ok_share", ratio(float64(sc.within), float64(sc.sent)))
	r.set("serve.exact_p50_ms", exactP50)
	r.set("serve.sampled_p50_ms", sampledP50)
	r.set("serve.srv_p50_ms", mid.P50Millis)
	r.set("serve.srv_p99_ms", mid.P99Millis)
	r.set("serve.mean_batch_size", mid.MeanBatchSize)
	r.set("serve.overload_goodput_qps", float64(oc.within)/(s.overload.Seconds()*over.speed))
	r.set("serve.overload_p99_ms", percentile(over.latencies(all), 0.99))
	r.set("serve.overload_shed_share", ratio(float64(after.Shed-mid.Shed), float64(oc.sent-oc.dropped)))
	r.set("serve.overload_admitted_qps", answered)
	r.set("serve.deadline_exceeded", float64(after.DeadlineExceeded-before.DeadlineExceeded))
	r.set("serve.expected_wait_ms", after.ExpectedWaitMS)
	r.set("serve.allocs_per_req", ratio(float64(mid.Mallocs-before.Mallocs), float64(mid.Requests-before.Requests)))
	r.set("serve.gc_pause_p99_ms", after.GCPauseP99Millis)
	r.set("serve.gc_cycles", float64(after.NumGC-before.NumGC))
	r.set("driver.late_ms_p99", late)
	r.set("driver.achieved_qps", float64(sc.sent-sc.dropped)/(s.steady.Seconds()*steady.speed))
	r.set("driver.dropped", float64(sc.dropped+oc.dropped))
	r.set("trace.overhead_share", float64(tr.overheadNS())/(s.steady+s.overload).Seconds()/1e9)

	p := probe{net: net, ds: ds, threads: 1, tr: tr, r: r}
	if err := p.handler(exact, sampled); err != nil {
		return err
	}
	p.network()
	// The replay's batch here is one sampled request on the server's one
	// processor, forward stages only.
	p.layers(r.Metrics["core.predict_sampled_us"].Value/1e3, 1, false)
	return nil
}

func saveModel(net *core.Network, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := net.SaveModel(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkAnswers verifies what the server serves: exact top-k for 64 keys
// equals Predictor.Predict on the same model file loaded here, and a seeded
// sampled request repeated returns the same answer (the bodies carry the
// server's timing of each request, so ids and scores are compared).
func checkAnswers(srv *server, model string, keys []sparse.Vector, exact, sampled [][]byte, r *report) error {
	f, err := os.Open(model)
	if err != nil {
		return err
	}
	net, err := core.LoadModel(f)
	f.Close()
	if err != nil {
		return err
	}
	pred, err := net.NewPredictor()
	if err != nil {
		return err
	}
	for i := range min(64, len(keys)) {
		got, err := srv.predict(exact[i])
		if err != nil {
			return err
		}
		want, _, err := pred.Predict(keys[i], topK)
		if err != nil {
			return err
		}
		r.check(slices.Equal(got.IDs, want), "key %d: served exact top-%d %v, Predictor.Predict %v", i, topK, got.IDs, want)
	}
	seeded := append(bytes.TrimSuffix(slices.Clone(sampled[0]), []byte("}")), `,"seed":7}`...)
	a, err := srv.predict(seeded)
	if err != nil {
		return err
	}
	b, err := srv.predict(seeded)
	if err != nil {
		return err
	}
	r.check(slices.Equal(a.IDs, b.IDs) && slices.Equal(a.Scores, b.Scores), "a seeded sampled request answered %v then %v", a, b)
	return nil
}

// handler drives the serving front end in-process, without sockets, and
// compares it with the bare predictor: the difference is what decode,
// admission, batching and encode cost per request.
func (p *probe) handler(exact, sampled [][]byte) error {
	front, err := serve.New(p.net, serve.Options{DefaultK: topK, MaxK: 100, BatchMax: 64})
	if err != nil {
		return err
	}
	defer front.Close()
	h := front.Handler()
	n := min(len(exact), 256)
	var us [2][]float64 // exact, sampled
	t0 := time.Now()
	for i := range n {
		for mode, body := range [][]byte{exact[i], sampled[i]} {
			req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			s0 := time.Now()
			h.ServeHTTP(rec, req)
			us[mode] = append(us[mode], float64(time.Since(s0).Nanoseconds())/1e3)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("in-process /predict answered %d: %s", rec.Code, rec.Body)
			}
		}
	}
	p.tr.add("serve.handler", -1, t0, time.Now(), int64(2*n))
	exactUS, sampledUS, err := predictCost(p.net, p.ds.Test[:n])
	if err != nil {
		return err
	}
	// The two modes differ severalfold, so each has its own median and the
	// metric is their mean: the even mix the workload sends.
	handlerUS := (median(us[0]) + median(us[1])) / 2
	p.r.set("serve.handler_us_p50", handlerUS)
	p.r.set("serve.overhead_us_p50", handlerUS-(exactUS+sampledUS)/2)
	return nil
}
