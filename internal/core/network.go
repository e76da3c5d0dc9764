package core

import (
	"fmt"
	"math"
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

// Network is a SLIDE network (Algorithm 1): layers with weights, Adam
// state and per-layer LSH tables. Construct with NewNetwork; the tables
// are built once from the initial weights (§3.1 "Initialization") and
// rebuilt on the exponential-decay schedule during training. Scheduled
// rebuilds are non-blocking by default: a shadow table set is built on a
// background goroutine from a batch-boundary weight snapshot and
// published with an atomic handle swap, so training batches and
// concurrent inference keep running on the previous set mid-rebuild
// (TrainConfig.SyncRebuild restores the stop-the-world path).
type Network struct {
	cfg    Config
	layers []*Layer
	ar     *arena.Arena
	adam   optim.Adam

	step     int64 // completed training iterations (batches)
	rebuilds int   // completed scheduled table rebuilds: the §4.2 schedule's exponent
	nextAt   int64 // iteration of the next scheduled rebuild

	// rebuildGen numbers table-set generations: every build — the
	// construction-time build, synchronous rebuilds, background shadow
	// builds — gets the next generation, which seeds its reservoir
	// streams. A generation's tables are a pure function of (weights
	// snapshot, config, generation), so a detached build is bit-identical
	// to a synchronous one from the same snapshot.
	rebuildGen uint64
	// pending is the in-flight background rebuild, nil when idle. Owned
	// by the training loop: only rebuildTick creates, publishes and
	// clears it.
	pending *pendingRebuild
	// rebuildStallNS / rebuildBuildNS account the lifecycle's cost since
	// construction: loop-blocking time (snapshot copies and swap
	// publication; entire rebuilds in sync mode) vs. background build
	// time overlapped with training.
	rebuildStallNS int64
	rebuildBuildNS int64

	// records[k] holds batch position k's element from its forward pass to
	// the fold that consumes it (backward.go); batch is the fold's list of
	// the records holding gradient. Both are reused across batches and
	// Train calls.
	records []*elemRecord
	batch   []*elemRecord

	// touchedWeights counts gradient cells stepped or extracted across all
	// batches — the sparse-gradient communication payload of a
	// distributed replica (§6 future work).
	touchedWeights int64
	// deltaScratch is the reusable SparseDelta a run with an exchanger
	// drains each batch's gradient into; a local run steps from the fold
	// and never fills it.
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
	return newNetwork(cfg, true)
}

// newNetwork is NewNetwork with the initial table build optional:
// LoadModel skips it because the tables would be hashed from random
// weights that the restored weights immediately replace.
func newNetwork(cfg Config, buildTables bool) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	for i, lc := range cfg.Layers {
		if lc.Activation == ActSoftmax && i != len(cfg.Layers)-1 {
			return nil, fmt.Errorf("core: softmax activation only supported on the output layer (layer %d)", i)
		}
	}
	n := &Network{cfg: cfg, ar: arena.NewDefault(), adam: cfg.Adam}
	in := cfg.InputDim
	for i, lc := range cfg.Layers {
		l, err := newLayer(i, in, lc, n.ar, cfg.Seed)
		if err != nil {
			return nil, err
		}
		n.layers = append(n.layers, l)
		in = lc.Size
	}
	// The update phase stamps the batch's input columns on the input-major
	// layer, whose rows they are, and on a neuron-major layer whose input
	// arrives sparse (the example's features, or a preceding sampled
	// layer's active set) over a wide fan-in, which replays its rows over
	// their union (fold.go).
	sparseIn := true
	for _, l := range n.layers {
		if l.inputMajor || sparseIn && l.in > colTrackThreshold {
			l.colStamp = make([]uint32, l.in)
		}
		sparseIn = l.Sampled()
	}
	if buildTables {
		n.RebuildTables(0)
	}
	n.nextAt = int64(cfg.RebuildN0)
	return n, nil
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

// maybeRebuild applies the §4.2 exponential-decay schedule with a
// synchronous (stop-the-world) rebuild: the first rebuild happens N0
// iterations in, and the t-th gap is N0*exp(lambda*t), so rebuilds become
// rarer as gradients shrink toward convergence.
func (n *Network) maybeRebuild(workers int) bool {
	if n.step < n.nextAt {
		return false
	}
	n.RebuildTables(workers)
	n.rebuilds++
	n.scheduleNextRebuild()
	return true
}

// scheduleNextRebuild advances nextAt by the §4.2 exponential-decay gap.
func (n *Network) scheduleNextRebuild() {
	gap := float64(n.cfg.RebuildN0) * math.Exp(n.cfg.RebuildLambda*float64(n.rebuilds))
	if gap < 1 {
		gap = 1
	}
	n.nextAt = n.step + int64(gap)
}

// pendingRebuild is one in-flight background table build: the shadow sets
// under construction and the completion signal.
type pendingRebuild struct {
	done    chan struct{}
	shadows []*hashtable.Table // by layer index; nil for dense layers
	buildNS int64              // wall-clock spent building, overlapped with training
}

// rebuildTick drives the non-blocking table lifecycle at a batch
// boundary. If a background build finished, its shadows are published
// (one atomic store per layer) and the next rebuild scheduled; otherwise,
// when the §4.2 schedule is due and nothing is in flight, the synchronous
// prepare step runs (weight snapshot copies) and the build is kicked onto
// a background goroutine. The time the training loop is blocked here — by
// design only the prepare/publish cost, never the build itself —
// accumulates into n.rebuildStallNS.
func (n *Network) rebuildTick(workers int) {
	if n.pending != nil {
		select {
		case <-n.pending.done:
			t0 := nowNano()
			n.publishPending()
			n.rebuildStallNS += nowNano() - t0
		default:
			// Build still running; keep training on the old set.
		}
		return
	}
	if n.step < n.nextAt {
		return
	}
	t0 := nowNano()
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
		p.buildNS = nowNano() - t0
		close(p.done)
	}()
}

// publishPending swaps every finished shadow in and schedules the next
// rebuild. Must only be called once pending.done is closed.
func (n *Network) publishPending() {
	for li, shadow := range n.pending.shadows {
		if shadow != nil {
			n.layers[li].tables.Store(shadow)
		}
	}
	n.rebuildBuildNS += n.pending.buildNS
	n.pending = nil
	n.rebuilds++
	n.scheduleNextRebuild()
}

// finishPendingRebuild waits for an in-flight background build and
// publishes it, so a network is never left with a dangling builder after
// training returns.
func (n *Network) finishPendingRebuild() {
	if n.pending == nil {
		return
	}
	<-n.pending.done
	n.publishPending()
}

// Predict runs an exact (all neurons active) forward pass and returns the
// top-k class ids with their softmax-layer scores, highest first. It is a
// thin wrapper over the network's lazily built default Predictor;
// high-traffic callers should construct a Predictor once via NewPredictor
// and use it directly (PredictBatch amortizes fan-out across workers).
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
	return p.PredictSampled(x, k, opts...)
}
