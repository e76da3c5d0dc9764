package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/arena"
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
// training. A scheduled rebuild builds a shadow table set from the live
// weights at its due batch boundary, while the workers are quiesced, and
// publishes it there with an atomic handle swap, so the next batch runs
// on it; a concurrent query runs on whichever set it loaded.
type Network struct {
	cfg    Config
	layers []*Layer
	adam   optim.Adam

	step     int64 // completed training iterations (batches)
	rebuilds int   // scheduled table rebuilds: the §4.2 schedule's exponent
	nextAt   int64 // iteration the next scheduled rebuild is due at

	// rebuildGen numbers table-set generations: every build — the
	// construction-time build, RebuildTables, scheduled shadow builds —
	// gets the next generation, which seeds its reservoir streams. A
	// generation's tables are a pure function of (weights, config,
	// generation).
	rebuildGen uint64
	// rebuildNS accounts the scheduled rebuilds' time since construction,
	// which the training loop waits out at each due boundary.
	rebuildNS int64

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
	// updates counts the Adam updates applied (stepRecords calls), locally
	// or from a merged delta: the clock that keys the weights' moments'
	// stochastic rounding (momentKey), the same on every rank.
	updates uint64
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
// Adam moments — the weights' as one bfloat16 slab per moment in the
// layer's storage order, the biases' as float32 — and the update phase's
// per-row scratch. Every entry that folds or steps a batch —
// TrainContext, ExtractDelta, applyAdamBatch, ApplyDelta — calls it
// single-threaded before any worker starts, so a network that is only
// loaded and served never holds training state. Moments start at zero
// whenever they arrive, and the first layer's mark that every layer has
// its state.
func (n *Network) allocTrainState() {
	if n.layers[0].mW != nil {
		return
	}
	// The update phase stamps the batch's input columns on a neuron-major
	// layer whose input arrives sparse (the example's features, or a
	// preceding sampled layer's active set) over a wide fan-in, which
	// replays its rows over their union (fold.go).
	sparseIn := true
	for _, l := range n.layers {
		l.allocTrainState(!l.inputMajor && sparseIn && l.in > colTrackThreshold)
		sparseIn = l.Sampled()
	}
}

// allocTrainState gives the layer its Adam moments and its fold scratch,
// with column stamps when stamps is set. A weight's moments take 2 bytes
// each, a bias's 4.
func (l *Layer) allocTrainState(stamps bool) {
	rows, width := l.StorageShape()
	l.mW = make([]uint16, rows*width)
	l.vW = make([]uint16, rows*width)
	l.mB = make([]float32, l.out)
	l.vB = make([]float32, l.out)
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
		rows += l.rowsHashed
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
// and publishes it. Called directly it is not a scheduled rebuild —
// Rebuilds and the §4.2 schedule do not move. workers <= 0 selects
// GOMAXPROCS.
func (n *Network) RebuildTables(workers int) {
	defer runtime.KeepAlive(n) // the weights may view a mapped file (see mapping)
	if workers <= 0 {
		workers = defaultThreads()
	}
	n.rebuildGen++
	for _, l := range n.layers {
		if l.Sampled() {
			l.tables.Store(l.buildShadow(n.rebuildGen, workers))
		}
	}
}

// rebuildGap is the §4.2 exponential-decay gap N0·e^{λ·t} in batches, at
// least 1 and saturated at limit: a gap beyond it means no further rebuild.
func rebuildGap(n0 int, lambda float64, t int, limit int64) int64 {
	gap := float64(n0) * math.Exp(lambda*float64(t))
	if gap >= float64(limit) {
		return limit
	}
	return max(1, int64(gap))
}

// rebuildTick runs the §4.2 schedule at a batch boundary, with the
// workers quiesced. When a rebuild is due, every sampled layer's tables
// are rebuilt from the live weights and published (RebuildTables), so a
// set built at boundary t serves from batch t+1, and the next rebuild is
// due g = N0·e^{λ(r+1)} batches later, for r rebuilds so far. The due
// steps are pure functions of the config, so the trained bits are too.
// The build is the loop's only wait here; its time accumulates into
// n.rebuildNS.
func (n *Network) rebuildTick(workers int) {
	if n.step < n.nextAt {
		return
	}
	t0 := nowNano()
	n.nextAt = n.step + rebuildGap(n.cfg.RebuildN0, n.cfg.RebuildLambda, n.rebuilds+1, math.MaxInt64-n.step)
	n.RebuildTables(workers)
	n.rebuilds++
	n.rebuildNS += nowNano() - t0
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
