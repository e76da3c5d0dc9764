package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sparse"
)

// predictSeed salts the network seed for inference-state RNG streams so
// prediction never perturbs the training streams.
const predictSeed = 0x9ed1c7

// Predictor is a reusable, concurrency-safe inference session over a
// Network. It owns a pool of per-worker element states (activations,
// hash-code scratch, sampling strategies) sized to the network, so
// steady-state prediction performs no per-call element-state allocations
// — the property the "Accelerating SLIDE" follow-up (Daghaghi et al.,
// 2021) identifies as the source of SLIDE's CPU serving wins.
//
// A single Predictor may be shared by any number of goroutines; each call
// checks a state out of the pool and returns it when done. Predictions
// only read the network's weights and hash tables, so concurrent calls
// are race-free. Predicting concurrently with
// Train reads weights the training loop steps, unsynchronized, at batch
// boundaries, and inherits the paper's HOGWILD weak-consistency argument:
// reads may observe partially applied updates
// but never corrupt state. Hash tables are read through each layer's
// atomically swapped handle, so inference stays valid in the middle of a
// background table rebuild: a query runs coherently on whichever table
// generation it loaded, and the swap to the next generation is invisible
// to in-flight passes.
//
// Every pass runs each layer's kernel (internal/kernels) exactly as
// training does: exact and sampled inference share the training hot path,
// so serving inherits each layout win. The one inference-only step is the
// order of an exact pass's output-layer work: batch-major, a block of rows
// at a time for every element (exact.go), through the same gather kernel.
type Predictor struct {
	n    *Network
	pool sync.Pool // stores *elemState; empty Get returns nil
	// seededPool holds states reserved for seeded (deterministic) calls.
	// A seeded pass re-derives every stream in the state from the request
	// seed, which would destroy the per-worker stream independence the
	// unseeded pool relies on — so reseeded states never mix back into
	// pool. Workloads that never pass PredictOpts never fill it.
	seededPool sync.Pool
	// seq hands each freshly built state a distinct worker index so its
	// strategy/RNG streams are independent.
	seq atomic.Uint64
}

// NewPredictor builds an inference session for the network. The returned
// Predictor is safe for concurrent use and amortizes element-state
// allocation across calls; construct it once and share it.
func (n *Network) NewPredictor() (*Predictor, error) {
	p := &Predictor{n: n}
	// Build the first state eagerly: it validates the sampling
	// configuration so later pool refills cannot fail.
	st, err := p.newState()
	if err != nil {
		return nil, err
	}
	p.pool.Put(st)
	return p, nil
}

func (p *Predictor) newState() (*elemState, error) {
	w := int(p.seq.Add(1)) - 1
	return newElemState(p.n, p.n.cfg.Seed^predictSeed, w)
}

// statePool selects the pool a call draws from: seeded calls use the
// quarantined seededPool so their reseeds never perturb unseeded workers.
func (p *Predictor) statePool(seeded bool) *sync.Pool {
	if seeded {
		return &p.seededPool
	}
	return &p.pool
}

// getState checks a per-worker state out of the selected pool, building a
// new one if the pool is empty (first use, or GC reclaimed pooled
// states).
func (p *Predictor) getState(seeded bool) (*elemState, error) {
	if st, _ := p.statePool(seeded).Get().(*elemState); st != nil {
		return st, nil
	}
	return p.newState()
}

func (p *Predictor) putState(st *elemState, seeded bool) { p.statePool(seeded).Put(st) }

// Network returns the network this predictor serves.
func (p *Predictor) Network() *Network { return p.n }

// PredictOpts requests deterministic sampled inference. Passing one to a
// sampled call reseeds the checked-out worker state before each element's
// forward pass, so two calls with the same input and the same Seed return
// bitwise-identical ids and scores regardless of which pooled state
// serves them, of concurrent traffic, or of how many predictions came
// before. Calls without a PredictOpts keep the pooled fast path: each
// worker state advances its private streams and results are not
// reproducible across calls. Seeded calls draw from a separate state
// pool, so they never disturb the unseeded workers' stream independence.
// Seeding only affects the sampled path — exact inference is already
// deterministic.
type PredictOpts struct {
	// Seed drives the request's strategy and fallback-RNG streams.
	Seed uint64
}

// Predict runs an exact (all neurons active) forward pass and returns the
// top-k class ids with their softmax-layer scores, highest first, in
// fresh slices.
func (p *Predictor) Predict(x sparse.Vector, k int) ([]int32, []float32, error) {
	return p.TopKWithScoresInto(context.Background(), x, k, false, nil, nil)
}

// TopKWithScoresInto is a one-element PredictBatchInto that appends the
// answer into the caller's ids/scores buffers, reusing their capacity.
// Once that capacity covers k, a steady-state call allocates nothing. The
// returned slices are the (possibly grown) buffers; the input slices'
// contents are discarded.
func (p *Predictor) TopKWithScoresInto(ctx context.Context, x sparse.Vector, k int, sampled bool, ids []int32, scores []float32, opts ...PredictOpts) ([]int32, []float32, error) {
	defer runtime.KeepAlive(p) // the weights may view a mapped file (see mapping)
	xs, idsOut, scoresOut := [1]sparse.Vector{x}, [1][]int32{ids}, [1][]float32{scores}
	c, err := p.newCall(ctx, xs[:], k, sampled, opts)
	if err == nil {
		err = p.runInline(ctx, c, xs[:], idsOut[:], scoresOut[:])
	}
	return idsOut[0], scoresOut[0], err
}

// BatchResults is reusable result storage for PredictBatchInto. IDs[i]
// and Scores[i] hold element i's top-k ids and scores, highest first;
// both alias a flat backing array that is reused across calls, so a
// steady-state caller re-running batches of the same shape allocates
// nothing. The contents are valid until the next PredictBatchInto call
// on the same BatchResults.
type BatchResults struct {
	IDs    [][]int32
	Scores [][]float32

	idsFlat    []int32
	scoresFlat []float32
}

// prepare sizes the result storage for n elements of up to k results
// each, handing element i the capacity-bounded subslice
// flat[i*k : i*k : (i+1)*k] so concurrent workers append into disjoint
// memory.
func (r *BatchResults) prepare(n, k int) {
	if cap(r.idsFlat) < n*k {
		r.idsFlat = make([]int32, n*k)
		r.scoresFlat = make([]float32, n*k)
	}
	if cap(r.IDs) < n {
		r.IDs = make([][]int32, n)
		r.Scores = make([][]float32, n)
	}
	r.IDs, r.Scores = r.IDs[:n], r.Scores[:n]
	for i := 0; i < n; i++ {
		r.IDs[i] = r.idsFlat[i*k : i*k : (i+1)*k]
		r.Scores[i] = r.scoresFlat[i*k : i*k : (i+1)*k]
	}
}

// PredictBatchInto is the predictor's one inference implementation. It
// runs a forward pass for every input — exact, or with sampled=true
// SLIDE's sub-linear pass whose active neurons come from the hash
// tables — and writes each element's top-k class ids and scores, highest
// first, into the caller-owned res. k is clamped to [0, OutputDim], so
// res never holds more than len(xs)·OutputDim cells and k ≤ 0 yields
// empty results. A batch of more than one input fans out across
// GOMAXPROCS pooled worker states; one input runs inline on one pooled
// state, and a steady-state call of that shape allocates nothing.
//
// At most one PredictOpts may be passed. With sampled=true it seeds
// element i from a seed derived from Seed and i (element 0 uses Seed
// itself, so a one-element batch matches a seeded single prediction),
// whatever the batch's split across workers. Cancellation is checked
// between sub-batches: each worker runs its contiguous share of an exact
// call batch-major, up to exactBatchCap elements per sub-batch, and of a
// sampled call one element at a time. A sub-batch that has started
// finishes; when ctx ends before some sub-batch starts, the call returns
// ctx.Err(), and a ctx done before the call writes nothing.
func (p *Predictor) PredictBatchInto(ctx context.Context, xs []sparse.Vector, k int, sampled bool, res *BatchResults, opts ...PredictOpts) error {
	defer runtime.KeepAlive(p) // the weights may view a mapped file (see mapping)
	c, err := p.newCall(ctx, xs, k, sampled, opts)
	if err != nil {
		return err
	}
	res.prepare(len(xs), c.k)
	workers := min(defaultThreads(), len(xs))
	if workers <= 1 {
		return p.runInline(ctx, c, xs, res.IDs, res.Scores)
	}
	states, err := p.acquireStates(workers, c.seeded)
	if err != nil {
		return err
	}
	defer p.releaseStates(states, c.seeded)
	var cancelled atomic.Bool
	parallelIndexed(workers, len(xs), func(w, lo, hi int) {
		if p.predictRange(ctx, states[w], c, xs[lo:hi], lo, res.IDs[lo:hi], res.Scores[lo:hi]) != nil {
			cancelled.Store(true)
		}
	})
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// call is one validated prediction request: the clamped k, the forward
// mode and, for a seeded sampled request, its seed.
type call struct {
	k      int
	mode   forwardMode
	seeded bool
	seed   uint64
}

// newCall validates a request once for every entry point — a live ctx
// and inputs the network can run — and clamps k to [0, OutputDim].
func (p *Predictor) newCall(ctx context.Context, xs []sparse.Vector, k int, sampled bool, opts []PredictOpts) (call, error) {
	if err := ctx.Err(); err != nil {
		return call{}, err
	}
	if err := p.n.checkInputs(xs); err != nil {
		return call{}, err
	}
	c := call{k: min(max(k, 0), p.n.OutputDim()), mode: modeEvalFull}
	if sampled {
		c.mode = modeEvalSampled
		c.seeded = len(opts) > 0
		if c.seeded {
			c.seed = opts[0].Seed
		}
	}
	return c, nil
}

// runInline runs a call on one pooled state, with no goroutine and no
// closure, so neither xs nor the result slices escape.
func (p *Predictor) runInline(ctx context.Context, c call, xs []sparse.Vector, ids [][]int32, scores [][]float32) error {
	if len(xs) == 0 {
		return nil
	}
	st, err := p.getState(c.seeded)
	if err != nil {
		return err
	}
	defer p.putState(st, c.seeded)
	return p.predictRange(ctx, st, c, xs, 0, ids, scores)
}

// predictRange is the loop every prediction runs, over the call's
// elements lo, lo+1, ... (xs, ids and scores start at element lo) on one
// worker state, appending each element's top-k into ids[i]/scores[i]. An
// exact call runs batch-major (exactEach), refused between sub-batches
// once ctx is done; a sampled call runs element by element, each refused
// once ctx is done and, on a seeded call, reseeded from elemSeed(seed, i).
func (p *Predictor) predictRange(ctx context.Context, st *elemState, c call, xs []sparse.Vector, lo int, ids [][]int32, scores [][]float32) error {
	if c.mode == modeEvalFull {
		return p.n.exactEach(ctx, st, xs, func(i int, vals []float32) {
			ids[i], scores[i] = st.appendTopK(vals, nil, c.k, ids[i], scores[i])
		})
	}
	for i, x := range xs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.seeded {
			st.reseed(elemSeed(c.seed, lo+i))
		}
		ids[i], scores[i] = p.n.predictIntoBuf(st, x, c.k, c.mode, ids[i], scores[i])
	}
	return nil
}

// checkFeatures reports an input the network cannot run: index and value
// counts that differ, or a feature index outside [0, InputDim). It costs
// O(nnz) and allocates nothing on a valid input.
func (n *Network) checkFeatures(x sparse.Vector) error {
	if len(x.Idx) != len(x.Val) {
		return fmt.Errorf("%d feature indices but %d values", len(x.Idx), len(x.Val))
	}
	for _, i := range x.Idx {
		if i < 0 || int(i) >= n.cfg.InputDim {
			return fmt.Errorf("feature index %d out of range [0,%d)", i, n.cfg.InputDim)
		}
	}
	return nil
}

// checkInputs is checkFeatures over a batch, naming the first bad input.
func (n *Network) checkInputs(xs []sparse.Vector) error {
	for i, x := range xs {
		if err := n.checkFeatures(x); err != nil {
			return fmt.Errorf("core: input %d: %w", i, err)
		}
	}
	return nil
}

// elemSeed derives batch element i's seed from the request seed. The
// golden-ratio stride lands every element on a distinct seed while keeping
// elemSeed(seed, 0) == seed; PCG's seed diffusion makes even adjacent
// seeds statistically independent streams.
func elemSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*layerSeedMix
}

// acquireStates checks out n states for a fan-out call; on error every
// already-acquired state is returned to its pool.
func (p *Predictor) acquireStates(n int, seeded bool) ([]*elemState, error) {
	states := make([]*elemState, n)
	for i := range states {
		st, err := p.getState(seeded)
		if err != nil {
			p.releaseStates(states[:i], seeded)
			return nil, err
		}
		states[i] = st
	}
	return states, nil
}

func (p *Predictor) releaseStates(states []*elemState, seeded bool) {
	for _, st := range states {
		p.putState(st, seeded)
	}
}

// predictIntoBuf runs one forward pass and appends the top-k ids and
// scores of the output layer's active set into the given buffers
// (appendTopK).
func (n *Network) predictIntoBuf(st *elemState, x sparse.Vector, k int, mode forwardMode, ids []int32, scores []float32) ([]int32, []float32) {
	n.forwardElem(st, x, nil, mode)
	out := &st.layers[len(st.layers)-1]
	var active []int32
	if !out.full {
		active = out.ids
	}
	return st.appendTopK(out.vals, active, k, ids, scores)
}

// appendTopK appends the top-k of vals, from one selection pass, as ids
// and scores into the given buffers: the ids are positions in vals, or
// active[position] when active is non-nil. Selection reuses the state's
// Selector scratch, and ids/scores grow only until their capacity covers
// k — after which the whole path is allocation-free.
func (st *elemState) appendTopK(vals []float32, active []int32, k int, ids []int32, scores []float32) ([]int32, []float32) {
	pos := st.sel.TopKInto(st.topkPos, vals, k)
	st.topkPos = pos
	ids, scores = ids[:0], scores[:0]
	for _, p := range pos {
		scores = append(scores, vals[p])
		if active == nil {
			ids = append(ids, p)
		} else {
			ids = append(ids, active[p])
		}
	}
	return ids, scores
}

// defaultPredictor lazily builds the predictor backing the Network's
// convenience Predict/PredictSampled/Evaluate methods.
func (n *Network) defaultPredictor() (*Predictor, error) {
	n.predOnce.Do(func() {
		n.pred, n.predErr = n.NewPredictor()
	})
	if n.predErr != nil {
		return nil, fmt.Errorf("core: building default predictor: %w", n.predErr)
	}
	return n.pred, nil
}
