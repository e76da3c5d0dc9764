package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/lsh"
	"repro/internal/optim"
)

// nominalSeconds is the -seconds value the full shapes are sized for: at
// it the trainers run the iteration counts below and serve_open the phase
// lengths in serve.go. Another -seconds scales both in proportion; the
// quality gates (target and floor P@1) are only reachable near nominal.
const nominalSeconds = 16

// trainSpec is one training workload's shape. Shapes are fixed by name
// (later issues refer to them); only iterations follow -seconds.
type trainSpec struct {
	profile     dataset.Profile
	layer       core.LayerConfig // the sampled output layer; Size is filled from the data
	lr          float32
	batch       int // per shard
	threads     int // per shard
	shards      int
	iterations  int64
	evalEvery   int64
	evalSamples int
	// targetP1 is the eval P@1 time_to_target_s clocks (0: the workload
	// has no quality target and clocks the whole iteration budget);
	// floorP1 is the least final P@1 a correct run may end at.
	targetP1, floorP1 float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// dense runs the internal/dense comparator in the traced run; it is
	// affordable at train_converge's width only.
	dense bool
}

const hiddenWidth = 128

// Budgets and quality gates of the full shapes at nominalSeconds, fixed
// from runs of the seed over ten seeds (README.md has them). Each budget is
// about 16 s of training clock on the reference box. Only train_converge
// runs long enough to converge, so only it clocks a time to accuracy.
const (
	convergeIterations = 517 // 11 epochs, 11 evaluations
	convergeTargetP1   = 0.30
	convergeFloorP1    = 0.35
	shardIterations    = 160 // 10 evaluations
	shardFloorP1       = 0.08
	xwideIterations    = 60 // one table rebuild, kicked off at batch 50
)

func trainSpecFor(name string, o options) (trainSpec, error) {
	scale := func(n int64) int64 { return max(n*int64(o.seconds)/nominalSeconds, 1) }
	if o.toy {
		p := dataset.Delicious200K(0.03, o.seed)
		p.FeatureDim, p.NumClasses, p.TrainSize, p.TestSize = 1024, 256, 1024, 256
		s := trainSpec{
			profile: p,
			layer:   core.LayerConfig{Hash: lsh.KindSimhash, K: 4, L: 8, Beta: 32},
			lr:      1e-3, batch: 32, threads: 2, shards: 1,
			iterations: 20, evalEvery: 5, evalSamples: 64, setups: 2, dense: true,
		}
		switch name {
		case "train_converge":
		case "train_xwide":
			s.layer.Hash, s.layer.RangePow, s.dense = lsh.KindDWTA, 6, false
		case "train_2shard":
			s.batch, s.threads, s.shards = 16, 1, 2
		default:
			return s, fmt.Errorf("no training workload %q", name)
		}
		return s, nil
	}
	switch name {
	case "train_converge", "train_2shard":
		// Delicious-shaped @0.03: 23.5K features, 6.2K classes, the one
		// probed scale where the accuracy curve is smooth and repeats.
		s := trainSpec{
			profile: dataset.Delicious200K(0.03, o.seed),
			layer:   core.LayerConfig{Hash: lsh.KindSimhash, K: 7, L: 30},
			lr:      1e-3, batch: 128, threads: 2, shards: 1,
			iterations: scale(convergeIterations), evalEvery: 47, evalSamples: 1024,
			targetP1: convergeTargetP1, floorP1: convergeFloorP1, setups: 3, dense: true,
		}
		s.layer.Beta = s.profile.NumClasses / 20
		if name == "train_2shard" {
			// The same task over two replicas of one thread and half the
			// batch each. A sharded batch costs about three of
			// train_converge's (its delta is most of the output layer),
			// so the budget ends before the accuracy target; the floor
			// only asks that both replicas learn.
			s.batch, s.threads, s.shards = 64, 1, 2
			s.iterations, s.targetP1, s.floorP1 = scale(shardIterations), 0, shardFloorP1
			s.evalEvery, s.evalSamples = 16, 256
		}
		return s, nil
	case "train_xwide":
		// Amazon-670K-shaped @0.2: 27K features, 134K classes. RangePow
		// is set here because slide-train's automatic value allocates
		// 6.7 GB of tables at 33K classes and is OOM-killed at this width.
		s := trainSpec{
			profile: dataset.Amazon670K(0.2, o.seed),
			layer:   core.LayerConfig{Hash: lsh.KindDWTA, K: 8, L: 50, RangePow: 12},
			lr:      1e-4, batch: 256, threads: 2, shards: 1,
			iterations: scale(xwideIterations), evalEvery: 5, evalSamples: 8, setups: 2,
		}
		s.layer.Beta = s.profile.NumClasses / 200
		// Only the examples the iteration budget reads are generated: the
		// shape (features, classes, sparsity) is the profile's, the
		// split sizes are not part of it.
		s.profile.TrainSize = int(s.iterations) * s.batch
		s.profile.TestSize = 1024
		return s, nil
	}
	return trainSpec{}, fmt.Errorf("no training workload %q", name)
}

func (s trainSpec) netConfig(ds *dataset.Dataset, seed uint64) core.Config {
	out := s.layer
	out.Size, out.Activation, out.Sampled, out.MinCount = ds.NumClasses, core.ActSoftmax, true, 2
	return core.Config{
		InputDim: ds.InputDim,
		Seed:     seed,
		Adam:     optim.NewAdam(s.lr),
		Layers:   []core.LayerConfig{{Size: hiddenWidth, Activation: core.ActReLU}, out},
	}
}

// trainEnv is a finished set-up: data, one network per shard, and for a
// sharded run the connected exchangers.
type trainEnv struct {
	ds    *dataset.Dataset
	cfg   core.Config
	nets  []*core.Network
	tcs   []core.TrainConfig // per rank, Exchanger set for sharded runs
	close func()

	generateS, newNetworkS float64
}

// exchanger is what both TCP ranks offer beyond core.DeltaExchanger.
type exchanger interface {
	core.DeltaExchanger
	Stats() dist.ExchangeStats
	Close() error
}

// setupTrain does everything that precedes the measured phase.
func setupTrain(s trainSpec, o options, tr *tracer) (*trainEnv, error) {
	env := &trainEnv{close: func() {}}
	t0 := time.Now()
	ds, err := dataset.Generate(s.profile)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	tr.add("dataset.generate", -1, t0, t1, 1)
	env.ds, env.generateS = ds, t1.Sub(t0).Seconds()
	env.cfg = s.netConfig(ds, o.seed)
	for range s.shards {
		net, err := core.NewNetwork(env.cfg)
		if err != nil {
			return nil, err
		}
		env.nets = append(env.nets, net)
	}
	t2 := time.Now()
	tr.add("core.new_network", -1, t1, t2, int64(s.shards))
	env.newNetworkS = t2.Sub(t1).Seconds() / float64(s.shards)

	group := core.TrainConfig{
		BatchSize: s.batch, Iterations: s.iterations, Threads: s.threads,
		EvalEvery: s.evalEvery, EvalSamples: s.evalSamples, Seed: o.seed,
		// Without a quality target the final evaluation is not read, and
		// an exact pass over 1024 examples at 134K classes costs seconds.
		SkipFinalEval: s.targetP1 == 0 && s.floorP1 == 0,
	}
	if s.shards == 1 {
		env.tcs = []core.TrainConfig{group}
		return env, nil
	}
	// Rank 0 hosts the exchange on loopback and rank 1 dials in, as two
	// slide-train processes would; both ranks live in this process.
	for rank := range s.shards {
		env.tcs = append(env.tcs, dist.ShardTrainConfig(group, len(ds.Train), rank, s.shards))
	}
	digest := dist.ScheduleDigest(env.cfg, env.tcs[0], o.seed)
	srv, err := dist.ListenExchanger("127.0.0.1:0", s.shards, dist.NewCodec(env.nets[0]), digest)
	if err != nil {
		return nil, err
	}
	closers := []exchanger{srv}
	env.close = func() {
		for _, c := range closers {
			c.Close()
		}
	}
	env.tcs[0].Exchanger = srv
	for rank := 1; rank < s.shards; rank++ {
		cli, err := dist.DialExchanger(srv.Addr().String(), rank, s.shards, dist.NewCodec(env.nets[rank]), digest)
		if err != nil {
			env.close()
			return nil, err
		}
		closers = append(closers, cli)
		env.tcs[rank].Exchanger = cli
	}
	return env, nil
}

// repeatSetup runs set-up n times, keeps the last, and returns the
// calibrated time of each (the machine's speed is sampled before and after
// the pass). Earlier passes are released before the next starts, and the
// peak-RSS mark restarts with the pass that is kept.
func repeatSetup[E any](n int, setup func() (E, error), discard func(E)) (E, []float64, error) {
	var env E
	var secs []float64
	for i := range n {
		if i > 0 {
			discard(env)
			var zero E
			env = zero
		}
		releaseMemory()
		sm := speedometer{threads: 1} // the process is idle around a set-up pass
		sm.sample()
		t0 := time.Now()
		var err error
		if env, err = setup(); err != nil {
			return env, nil, err
		}
		sec := time.Since(t0).Seconds()
		sm.sample()
		secs = append(secs, sec*sm.speed())
	}
	return env, secs, nil
}

// spanExchanger passes Exchange through and records when each call began
// and ended: the gap between calls is a batch, the call itself the time
// the rank was blocked on its peers.
type spanExchanger struct {
	exchanger
	tr     *tracer
	parent int
	begin  []time.Time
	end    []time.Time
}

func (e *spanExchanger) Exchange(step int64, local *core.SparseDelta, stop bool) (*core.SparseDelta, bool, error) {
	t0 := time.Now()
	merged, stopAll, err := e.exchanger.Exchange(step, local, stop)
	t1 := time.Now()
	e.begin, e.end = append(e.begin, t0), append(e.end, t1)
	e.tr.add("dist.exchange", e.parent, t0, t1, 1)
	return merged, stopAll, err
}

// Shards lets core.Train verify the group size through the decorator.
func (e *spanExchanger) Shards() int { return e.exchanger.(core.ShardCounter).Shards() }

// runTrain is the three training workloads.
func runTrain(name string, o options, tr *tracer, r *report) error {
	s, err := trainSpecFor(name, o)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(2)
	setups := s.setups
	if o.trace {
		setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	env, setupSecs, err := repeatSetup(setups,
		func() (*trainEnv, error) { return setupTrain(s, o, tr) },
		func(e *trainEnv) { e.close() })
	if err != nil {
		return err
	}
	defer env.close()

	// Rank 0 narrates: its eval points carry the training clock. Each
	// evaluation is off that clock, so the machine's speed is sampled there
	// (in a sharded run the other rank is waiting at the barrier meanwhile),
	// and the collector is run there: left to itself it runs once or not at
	// all in a 16 s budget, and train_xwide's peak RSS read 1283 to 1786 MB
	// by whether that once came before the closing rebuild. Collected at
	// every evaluation, the peak is live data plus one interval's garbage.
	var points []core.Point
	sm := speedometer{threads: s.threads * s.shards}
	env.tcs[0].OnEval = func(p core.Point) {
		runtime.GC()
		sm.sample()
		points = append(points, p)
		fmt.Fprintf(os.Stderr, "  %s iter %4d  t=%7.2fs  P@1=%.4f\n", name, p.Iter, p.Seconds, p.Value)
	}
	var tap *spanExchanger
	if o.trace && s.shards > 1 {
		tap = &spanExchanger{exchanger: env.tcs[0].Exchanger.(exchanger), tr: tr, parent: -1}
		env.tcs[0].Exchanger = tap
	}

	var before, after runtime.MemStats
	if o.trace {
		runtime.ReadMemStats(&before)
	}
	results := make([]*core.TrainResult, s.shards)
	errs := make([]error, s.shards)
	trainStart := time.Now()
	var wg sync.WaitGroup
	for rank := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard := env.ds.Train
			if s.shards > 1 {
				shard = dist.ShardExamples(env.ds.Train, rank, s.shards)
			}
			results[rank], errs[rank] = env.nets[rank].Train(shard, env.ds.Test, env.tcs[rank])
		}()
	}
	wg.Wait()
	trainEnd := time.Now()
	tr.add("core.train", -1, trainStart, trainEnd, s.iterations)
	if o.trace {
		runtime.ReadMemStats(&after)
	}
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	res := results[0]
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}

	// Operations are batches: a batch the schedule asked for and training
	// did not complete has failed.
	r.Attempted = int(s.iterations)
	r.Failed = int(s.iterations - res.Iterations)
	r.check(r.Failed == 0, "%d of %d iterations ran", res.Iterations, s.iterations)

	// Batch times per eval interval, on the training clock (evaluation
	// excluded). The box shares its cores with other VMs, whose bursts slow
	// a second or two at a time by up to half; the median interval reads the
	// undisturbed batch time where the run's total would read the
	// neighbours. A cost that falls in few intervals (a table rebuild on
	// train_xwide) is in the slowest interval, which the traced run reports
	// as core.iter_ms_p99.
	var stepMS []float64
	prev := core.Point{}
	for _, p := range points {
		if p.Iter > prev.Iter {
			stepMS = append(stepMS, (p.Seconds-prev.Seconds)/float64(p.Iter-prev.Iter)*1e3)
		}
		prev = p
	}
	speed := sm.speed()
	stepP50 := median(stepMS) * speed // calibrated
	examplesPerS := float64(s.batch*s.shards) / stepP50 * 1e3
	fmt.Fprintf(os.Stderr, "  %s machine speed %.3f: median batch %.2f ms measured, %.2f ms calibrated\n", name, speed, median(stepMS), stepP50)
	// Time to target is batches to target at the median batch time, for
	// the same reason; with no quality target it is the whole budget's.
	toTarget, reached := float64(res.Iterations), true
	if s.targetP1 > 0 {
		toTarget, reached = itersToValue(points, s.targetP1)
		r.check(reached, "eval P@1 never reached %.2f in %d iterations (best point %.4f)", s.targetP1, res.Iterations, bestValue(points))
	}
	toTarget *= stepP50 / 1e3
	finalP1 := tailMean(points, 3)
	r.check(finalP1 >= s.floorP1, "final P@1 %.4f is under the floor %.4f", finalP1, s.floorP1)
	equal := 1.0
	if s.shards > 1 {
		h0 := weightsHash(env.nets[0])
		for rank := 1; rank < s.shards; rank++ {
			if weightsHash(env.nets[rank]) != h0 {
				equal = 0
			}
		}
		r.check(equal == 1, "the ranks' weights differ after training")
	}

	r.set("setup_s", median(setupSecs))
	r.set("throughput_per_s", examplesPerS)
	r.set("time_to_target_s", toTarget)
	r.set("step_p50_ms", stepP50)
	r.set("peak_rss_mb", rss)
	if !o.trace {
		return nil
	}

	out := len(env.cfg.Layers) - 1
	// Per-layer timings are as measured, uncalibrated; machine.speed is
	// what the end-to-end metrics of this run would have been scaled by.
	r.set("machine.speed", speed)
	r.set("dataset.generate_s", env.generateS)
	r.set("core.new_network_s", env.newNetworkS)
	r.set("core.train_seconds", res.Seconds)
	r.set("core.train_examples_per_s", float64(res.Iterations)*float64(s.batch*s.shards)/res.Seconds)
	if p1, ok := timeToValue(points, s.targetP1); s.targetP1 > 0 && ok {
		r.set("core.time_to_p1_s", p1)
	}
	r.set("core.p_at_1", finalP1)
	r.set("core.rebuilds", float64(res.Rebuilds))
	r.set("core.rebuild_stall_share", float64(res.RebuildStallNS)/1e9/res.Seconds)
	r.set("core.rebuild_build_s", float64(res.RebuildBuildNS)/1e9)
	r.set("core.rows_rehashed", float64(res.RowsRehashed))
	r.set("core.rows_reused", float64(res.RowsReused))
	r.set("core.utilization", res.Utilization)
	r.set("core.touched_cells_per_iter", res.TouchedPerIter)
	var forwards int64
	for _, c := range res.KernelForwards {
		forwards += c
	}
	r.set("core.kernel_gather_share", ratio(float64(res.KernelForwards["gather"]), float64(forwards)))
	r.set("core.mean_active", res.MeanActive[out])
	r.set("core.allocs_per_iter", float64(after.Mallocs-before.Mallocs)/float64(res.Iterations))
	r.set("core.gc_cycles", float64(after.NumGC-before.NumGC))
	r.set("dist.rank_weights_equal", equal)

	batchMS := median(stepMS)
	if tap != nil {
		// Per-batch spans from the decorator; a gap that holds one of
		// rank 0's evaluations is not a batch and is left out.
		var gaps, blocked []float64
		for i := range tap.begin {
			blocked = append(blocked, tap.end[i].Sub(tap.begin[i]).Seconds()*1e3)
			if i > 0 && int64(i)%s.evalEvery != 0 {
				gaps = append(gaps, tap.begin[i].Sub(tap.begin[i-1]).Seconds()*1e3)
			}
		}
		batchMS = median(gaps)
		r.set("core.iter_ms_p99", percentile(gaps, 0.99))
		r.set("dist.exchange_ms_p50", median(blocked))
		r.set("dist.exchange_ms_p99", percentile(blocked, 0.99))
		st := tap.Stats()
		// The hub's counters point the other way (its BytesIn is the
		// clients' uploads) and sum shards-1 links; report one replica's
		// view, as slide-train does.
		per := float64(max(st.Rounds, 1)) * float64(s.shards-1)
		r.set("dist.bytes_out_per_round", float64(st.BytesIn)/per)
		r.set("dist.bytes_in_per_round", float64(st.BytesOut)/per)
		r.set("dist.rounds", float64(st.Rounds))
		r.set("dist.exchange_blocked_share", float64(res.ExchangeNS)/1e9/res.Seconds)
	} else {
		r.set("core.iter_ms_p99", percentile(stepMS, 1)) // the slowest interval
	}
	r.set("core.iter_ms_p50", batchMS)

	p := probe{net: env.nets[0], ds: env.ds, threads: s.threads * s.shards, tr: tr, r: r}
	p.layers(batchMS, s.batch*s.shards, true)
	p.network()
	if err := p.deltas(s, o); err != nil {
		return err
	}
	if s.dense {
		if err := p.dense(s, o, examplesPerS); err != nil {
			return err
		}
	}
	if s.shards > 1 {
		if err := p.scaling(s, o, examplesPerS); err != nil {
			return err
		}
	}
	r.set("trace.overhead_share", float64(tr.overheadNS())/float64(trainEnd.Sub(trainStart).Nanoseconds()))
	return nil
}

// timeToValue is the training-clock second at which the curve first reaches
// target, linearly interpolated between the bracketing eval points.
func timeToValue(points []core.Point, target float64) (float64, bool) {
	iters, ok := itersToValue(points, target)
	prev := core.Point{}
	for _, p := range points {
		if ok && float64(p.Iter) >= iters {
			return prev.Seconds + (iters-float64(prev.Iter))/float64(p.Iter-prev.Iter)*(p.Seconds-prev.Seconds), true
		}
		prev = p
	}
	return 0, false
}

// itersToValue is the iteration at which the curve first reaches target,
// linearly interpolated between the bracketing eval points.
func itersToValue(points []core.Point, target float64) (float64, bool) {
	prev := core.Point{}
	for _, p := range points {
		if p.Value >= target {
			if p.Value <= prev.Value {
				return float64(p.Iter), true
			}
			f := max((target-prev.Value)/(p.Value-prev.Value), 0)
			return float64(prev.Iter) + f*float64(p.Iter-prev.Iter), true
		}
		prev = p
	}
	return 0, false
}

func bestValue(points []core.Point) float64 {
	best := 0.0
	for _, p := range points {
		best = max(best, p.Value)
	}
	return best
}

// tailMean is the mean P@1 of the last n eval points (fewer if the run had
// fewer; 0 with none).
func tailMean(points []core.Point, n int) float64 {
	points = points[max(len(points)-n, 0):]
	sum := 0.0
	for _, p := range points {
		sum += p.Value
	}
	return ratio(sum, float64(len(points)))
}

// weightsHash fingerprints every weight and bias bit of the network.
func weightsHash(n *core.Network) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(f float32) {
		u := math.Float32bits(f)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	for li := range n.NumLayers() {
		l := n.Layer(li)
		for j := range l.Out() {
			for _, w := range l.Weights(j) {
				put(w)
			}
			put(l.Bias(j))
		}
	}
	return h.Sum64()
}
