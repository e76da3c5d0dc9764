package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/hashtable"
	"repro/internal/metrics"
	"repro/internal/optim"
	"repro/internal/sparse"
)

// Point is an evaluation point on a training curve.
type Point = metrics.Point

// Network is a SLIDE network (Algorithm 1): layers with weights, biases
// and per-layer LSH tables, and Adam state once it trains. Construct with
// NewNetwork; the tables are built once from the initial weights (§3.1
// "Initialization") and rebuilt on the exponential-decay schedule during
// training. A scheduled rebuild snapshots the weights at its due batch
// boundary, builds a shadow table set on a background goroutine, and
// publishes it with an atomic handle swap a fixed, schedule-derived number
// of batches later (rebuildLagDiv), so training batches and concurrent
// inference keep running on the previous set mid-rebuild and the batch a
// set goes live at depends only on the config, never on timing.
type Network struct {
	cfg    Config
	layers []*Layer
	adam   optim.Adam

	step      int64 // completed training iterations (batches)
	rebuilds  int   // published scheduled table rebuilds: the §4.2 schedule's exponent
	nextAt    int64 // iteration the next scheduled rebuild is kicked at
	publishAt int64 // iteration the pending rebuild is published at

	// rebuildGen numbers table-set generations: every build — the
	// construction-time build, RebuildTables, scheduled shadow builds —
	// gets the next generation, which seeds its reservoir streams. A
	// generation's tables are a pure function of (weights snapshot,
	// config, generation), so a detached build is bit-identical to an
	// inline one from the same weights.
	rebuildGen uint64
	// pending is the in-flight background rebuild, nil when idle. Owned
	// by the training loop: only rebuildTick creates, publishes and
	// clears it.
	pending *pendingRebuild
	// rebuildStallNS / rebuildBuildNS account the lifecycle's cost since
	// construction: loop-blocking time (snapshot copies, and at the
	// publish step any wait for a build still running) vs. background
	// build time.
	rebuildStallNS int64
	rebuildBuildNS int64

	// records[k] holds batch position k's element from its forward pass to
	// the fold that consumes it (backward.go); batch is the fold's list of
	// the records holding gradient; views are the records ApplyDelta folds,
	// views of a delta's factors. All are reused across batches and Train
	// calls.
	records []*elemRecord
	batch   []*elemRecord
	views   []*elemRecord

	// touchedWeights counts the gradient cells training stepped across
	// all batches, locally or from a merged delta.
	touchedWeights int64
	// deltaScratch is the reusable SparseDelta a run with an exchanger
	// copies each batch's records into; a local run folds its records in
	// place and never fills it.
	deltaScratch *SparseDelta

	// pred backs the convenience Predict/PredictSampled/Evaluate
	// methods: one lazily built shared inference session whose pooled
	// element states are reused across calls.
	pred     *Predictor
	predOnce sync.Once
	predErr  error
}

// NewNetwork builds and initializes a network: random weights, K*L hash
// functions per sampled layer, and hash tables populated from the initial
// weight vectors.
func NewNetwork(cfg Config) (*Network, error) {
	return newNetwork(cfg, nil)
}

// newNetwork builds the network over views, a loaded model file's
// sections (LoadModel), which carry the weights, as the file carries the
// tables built from them. With views nil it builds over zeroed arena
// slabs, fills them with the random init and builds the tables from it
// (NewNetwork).
func newNetwork(cfg Config, views []layerViews) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	for i, lc := range cfg.Layers {
		if lc.Activation == ActSoftmax && i != len(cfg.Layers)-1 {
			return nil, fmt.Errorf("core: softmax activation only supported on the output layer (layer %d)", i)
		}
	}
	n := &Network{cfg: cfg, adam: cfg.Adam}
	ar := arena.New()
	in := cfg.InputDim
	for i, lc := range cfg.Layers {
		var v *layerViews
		if views != nil {
			v = &views[i]
		}
		l, err := newLayer(i, in, lc, ar, v, cfg.Seed)
		if err != nil {
			return nil, err
		}
		n.layers = append(n.layers, l)
		in = lc.Size
	}
	if views == nil {
		for _, l := range n.layers {
			l.initWeights(cfg.Seed, defaultThreads())
		}
		n.RebuildTables(0)
	}
	n.nextAt = int64(cfg.RebuildN0)
	return n, nil
}

// allocTrainState gives every layer what only training reads, once: the
// Adam moments, from one arena in the layers' storage shapes (each array
// contiguous, rows cache-line aligned), and the update phase's per-row
// scratch. Every entry that folds or steps a batch — TrainContext,
// ExtractDelta, applyAdamBatch, ApplyDelta — calls it single-threaded
// before any worker starts, so a network that is only loaded and served
// never holds training state. Moments start at zero whenever they arrive,
// and the first layer's mark that every layer has its state.
func (n *Network) allocTrainState() {
	if n.layers[0].mW != nil {
		return
	}
	ar := arena.New()
	// The update phase stamps the batch's input columns on a neuron-major
	// layer whose input arrives sparse (the example's features, or a
	// preceding sampled layer's active set) over a wide fan-in, which
	// replays its rows over their union (fold.go).
	sparseIn := true
	for _, l := range n.layers {
		l.allocTrainState(ar, !l.inputMajor && sparseIn && l.in > colTrackThreshold)
		sparseIn = l.Sampled()
	}
}

// allocTrainState gives the layer its Adam moments, from ar, and its fold
// scratch, with column stamps when stamps is set.
func (l *Layer) allocTrainState(ar *arena.Arena, stamps bool) {
	rows, width := l.StorageShape()
	l.mW = ar.AllocRows(rows, width)
	l.vW = ar.AllocRows(rows, width)
	l.mB = ar.AllocAligned(l.out)
	l.vB = ar.AllocAligned(l.out)
	l.hits = make([]int32, l.out)
	l.fold.cursor = make([]int32, rows)
	l.fold.bias = make([]float32, l.out)
	if stamps {
		l.colStamp = make([]uint32, l.in)
	}
}

// Config returns the network's (defaulted) configuration.
func (n *Network) Config() Config { return n.cfg }

// NumLayers returns the layer count.
func (n *Network) NumLayers() int { return len(n.layers) }

// Layer returns layer i.
func (n *Network) Layer(i int) *Layer { return n.layers[i] }

// OutputDim returns the size of the final layer.
func (n *Network) OutputDim() int { return n.layers[len(n.layers)-1].out }

// Step returns the number of completed training iterations.
func (n *Network) Step() int64 { return n.step }

// Rebuilds returns the number of scheduled hash-table rebuilds performed.
func (n *Network) Rebuilds() int { return n.rebuilds }

// rowsHashed sums the rows every table build since construction hashed.
func (n *Network) rowsHashed() (rows int64) {
	for _, l := range n.layers {
		rows += atomic.LoadInt64(&l.rowsHashed)
	}
	return rows
}

// NumParams returns the total trainable parameter count.
func (n *Network) NumParams() int64 {
	var p int64
	for _, l := range n.layers {
		p += int64(l.out)*int64(l.in) + int64(l.out)
	}
	return p
}

// RebuildTables synchronously rebuilds every sampled layer's tables from
// current weights: each layer builds a next-generation shadow set inline
// and publishes it. It is not a scheduled rebuild — Rebuilds and the §4.2
// schedule do not move. workers <= 0 selects GOMAXPROCS.
func (n *Network) RebuildTables(workers int) {
	defer runtime.KeepAlive(n) // the weights may view a mapped file (see mapping)
	if workers <= 0 {
		workers = defaultThreads()
	}
	n.rebuildGen++
	for _, l := range n.layers {
		if l.Sampled() {
			l.tables.Store(l.buildShadow(n.rebuildGen, nil, workers))
		}
	}
}

// rebuildLagDiv sets the publish lag: a rebuild kicked at step t, with
// the schedule's next gap g, publishes at t + D, D = max(1, ⌊g/rebuildLagDiv⌋)
// — 3 batches at the paper's N0 = 50. D ≤ g, so at most one build is in
// flight. Against publishing whenever the build finished, in alternating
// benchmark pairs on a 2-core Xeon, g/16 left every workload inside its
// spread: train_converge reached its P@1 target in 2.28 vs 2.33 s (8
// pairs), and train_xwide, whose single ~0.6 s build is now awaited at
// batch 53, kept its throughput (+1.0%, 6 pairs). A g/4 lag kept tables
// 13 batches stale and slowed train_converge's time to target by 22%.
const rebuildLagDiv = 16

// rebuildGap is the §4.2 exponential-decay gap N0·e^{λ·t} in batches, at
// least 1 and saturated at limit: a gap beyond it means no further rebuild.
func rebuildGap(n0 int, lambda float64, t int, limit int64) int64 {
	gap := float64(n0) * math.Exp(lambda*float64(t))
	if gap >= float64(limit) {
		return limit
	}
	return max(1, int64(gap))
}

// pendingRebuild is one in-flight background table build: the shadow sets
// under construction and the completion signal.
type pendingRebuild struct {
	done    chan struct{}
	shadows []*hashtable.Table // by layer index; nil for dense layers
	buildNS int64              // wall-clock spent building, overlapped with training
}

// rebuildTick drives the table lifecycle at a batch boundary: snapshot →
// background build → publish at a fixed step. A pending build whose
// publish step has come is awaited and swapped in (one atomic store per
// layer). Then, when the §4.2 schedule is due, the weights are
// snapshotted and the build kicked onto a background goroutine: a rebuild
// due at step t publishes at t + D and the next one is due at t + g, where
// g = N0·e^{λ(r+1)} for r rebuilds published so far and D derives from g
// (rebuildLagDiv). Both steps are pure functions of the config, so the
// trained bits are too. The time the training loop is blocked here — the
// snapshot copies, the swap, and any wait for a build that overran its
// lag — accumulates into n.rebuildStallNS.
func (n *Network) rebuildTick(workers int) {
	if n.pending != nil && n.step >= n.publishAt {
		t0 := nowNano()
		n.finishPendingRebuild()
		n.rebuildStallNS += nowNano() - t0
	}
	if n.step < n.nextAt {
		return
	}
	t0 := nowNano()
	g := rebuildGap(n.cfg.RebuildN0, n.cfg.RebuildLambda, n.rebuilds+1, math.MaxInt64-n.step)
	n.nextAt = n.step + g
	n.publishAt = n.step + max(1, g/rebuildLagDiv)
	n.startBackgroundRebuild(workers)
	n.rebuildStallNS += nowNano() - t0
}

// startBackgroundRebuild snapshots every sampled layer's weights (the
// synchronous prepare step), then launches one goroutine that builds all
// shadow sets from the snapshots. The build touches only the snapshots and
// its own detached tables, so it is race-free against training workers and
// live Predictor traffic.
func (n *Network) startBackgroundRebuild(workers int) {
	n.rebuildGen++
	gen := n.rebuildGen
	p := &pendingRebuild{
		done:    make(chan struct{}),
		shadows: make([]*hashtable.Table, len(n.layers)),
	}
	snaps := make([][]float32, len(n.layers))
	for li, l := range n.layers {
		if l.Sampled() {
			snaps[li] = l.snapshotRows(workers)
		}
	}
	n.pending = p
	go func() {
		t0 := nowNano()
		for li, l := range n.layers {
			if l.Sampled() {
				p.shadows[li] = l.buildShadow(gen, snaps[li], workers)
			}
		}
		if testSlowBuild != nil {
			testSlowBuild()
		}
		p.buildNS = nowNano() - t0
		close(p.done)
	}()
}

// testSlowBuild, when set, runs at the end of every background build.
// Tests use it to make builds overrun their publish lag.
var testSlowBuild func()

// finishPendingRebuild waits for an in-flight background build and
// publishes it. rebuildTick calls it at the publish step; Train calls it
// at exit, publishing early, so a network is never left with a dangling
// builder after training returns.
func (n *Network) finishPendingRebuild() {
	p := n.pending
	if p == nil {
		return
	}
	<-p.done
	for li, shadow := range p.shadows {
		if shadow != nil {
			n.layers[li].tables.Store(shadow)
		}
	}
	n.rebuildBuildNS += p.buildNS
	n.pending = nil
	n.rebuilds++
}

// Predict runs an exact (all neurons active) forward pass and returns the
// top-k class ids with their softmax-layer scores, highest first. It is a
// thin wrapper over the network's lazily built default Predictor;
// high-traffic callers should construct a Predictor once via NewPredictor
// and use its PredictBatchInto, which reuses result storage and fans
// batches out across workers.
func (n *Network) Predict(x sparse.Vector, k int) ([]int32, []float32, error) {
	p, err := n.defaultPredictor()
	if err != nil {
		return nil, nil, err
	}
	return p.Predict(x, k)
}

// PredictSampled runs SLIDE's sub-linear inference: active neurons come
// from the hash tables, and only their scores are computed. Like Predict,
// it delegates to the network's pooled default Predictor. An optional
// PredictOpts makes the draw deterministic in its Seed.
func (n *Network) PredictSampled(x sparse.Vector, k int, opts ...PredictOpts) ([]int32, []float32, error) {
	p, err := n.defaultPredictor()
	if err != nil {
		return nil, nil, err
	}
	return p.TopKWithScoresInto(context.Background(), x, k, true, nil, nil, opts...)
}
