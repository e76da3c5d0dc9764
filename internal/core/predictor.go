package core

import (
	"context"
	"fmt"
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
// only read the network's weights and hash tables, so concurrent
// Predict/PredictBatch calls are race-free. Predicting concurrently with
// Train reads weights the training loop steps, unsynchronized, at batch
// boundaries, and inherits the paper's HOGWILD weak-consistency argument:
// reads may observe partially applied updates
// but never corrupt state; the column-major kernel mirrors the scatter
// forward form streams are dual-written by the same Adam step and carry
// the identical argument. Hash tables are read through each layer's
// atomically swapped handle, so inference stays valid in the middle of a
// background table rebuild: a query runs coherently on whichever table
// generation it loaded, and the swap to the next generation is invisible
// to in-flight passes.
//
// Every pass plans its kernels through the network's density-adaptive
// engine (internal/kernels): exact and sampled inference share the
// training hot path's gather/scatter forms, so serving inherits each
// layout win without predictor-specific code.
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
// sampled Predict* call reseeds the checked-out worker state from Seed
// before the forward pass, so two calls with the same input and the same
// Seed return bitwise-identical ids and scores regardless of which pooled
// state serves them, of concurrent traffic, or of how many predictions
// came before. Calls without a PredictOpts keep the pooled fast path:
// each worker state advances its private streams and results are not
// reproducible across calls. Seeded calls draw from a separate state
// pool, so they never disturb the unseeded workers' stream independence.
// Seeding only affects the sampled path — exact inference is already
// deterministic.
type PredictOpts struct {
	// Seed drives the request's strategy and fallback-RNG streams.
	Seed uint64
}

// Predict runs an exact (all neurons active) forward pass and returns the
// top-k class ids with their softmax-layer scores, highest first.
func (p *Predictor) Predict(x sparse.Vector, k int) ([]int32, []float32, error) {
	return p.TopKWithScores(x, k, false)
}

// PredictSampled runs SLIDE's sub-linear inference: active neurons come
// from the hash tables, and only their scores are computed. Passing a
// PredictOpts makes the sampled draw deterministic in its Seed.
func (p *Predictor) PredictSampled(x sparse.Vector, k int, opts ...PredictOpts) ([]int32, []float32, error) {
	return p.TopKWithScores(x, k, true, opts...)
}

// TopKWithScores is the general single-example entry point: it runs one
// forward pass (sampled or exact) and extracts the top-k class ids and
// scores in a single selection pass, highest score first. At most one
// PredictOpts may be passed; it seeds the sampled path per PredictOpts.
func (p *Predictor) TopKWithScores(x sparse.Vector, k int, sampled bool, opts ...PredictOpts) ([]int32, []float32, error) {
	seeded := sampled && len(opts) > 0
	st, err := p.getState(seeded)
	if err != nil {
		return nil, nil, err
	}
	if seeded {
		st.reseed(opts[0].Seed)
	}
	mode := modeEvalFull
	if sampled {
		mode = modeEvalSampled
	}
	ids, scores := p.n.predictInto(st, x, k, mode)
	p.putState(st, seeded)
	return ids, scores, nil
}

// TopKWithScoresCtx is TopKWithScores for deadline-bounded serving: work
// that is already doomed (ctx cancelled or past its deadline) is refused
// before a worker state is checked out and the forward pass runs, so a
// server propagating per-request deadlines never spends a full pass on a
// request whose client has given up. A context that expires mid-pass does
// not abort the pass — a single example is the unit of cancellation, as
// in PredictBatch.
func (p *Predictor) TopKWithScoresCtx(ctx context.Context, x sparse.Vector, k int, sampled bool, opts ...PredictOpts) ([]int32, []float32, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return p.TopKWithScores(x, k, sampled, opts...)
}

// TopKWithScoresInto is TopKWithScoresCtx appending the result into the
// caller's ids/scores buffers (reusing their capacity) instead of
// allocating fresh slices — the allocation-free serving entry point. Once
// the buffers' capacity covers k, a steady-state call performs zero heap
// allocations: the worker state comes from the pool, selection scratch
// lives in the state, and the results land in the caller's memory. The
// returned slices are the (possibly grown) buffers; the input slices'
// contents are discarded.
func (p *Predictor) TopKWithScoresInto(ctx context.Context, x sparse.Vector, k int, sampled bool, ids []int32, scores []float32, opts ...PredictOpts) ([]int32, []float32, error) {
	if err := ctx.Err(); err != nil {
		return ids, scores, err
	}
	seeded := sampled && len(opts) > 0
	st, err := p.getState(seeded)
	if err != nil {
		return ids, scores, err
	}
	if seeded {
		st.reseed(opts[0].Seed)
	}
	mode := modeEvalFull
	if sampled {
		mode = modeEvalSampled
	}
	ids, scores = p.n.predictIntoBuf(st, x, k, mode, ids, scores)
	p.putState(st, seeded)
	return ids, scores, nil
}

// PredictBatch predicts exact top-k ids and scores for every input,
// fanning the batch out across GOMAXPROCS pooled workers. Cancellation is
// checked between elements: on ctx cancellation the partial work is
// discarded and ctx.Err() returned.
func (p *Predictor) PredictBatch(ctx context.Context, xs []sparse.Vector, k int) ([][]int32, [][]float32, error) {
	return p.predictBatch(ctx, xs, k, modeEvalFull)
}

// PredictBatchSampled is PredictBatch over the sub-linear sampled
// inference path. Passing a PredictOpts makes every element's draw
// deterministic: element i is seeded with a per-element seed derived from
// Seed and i (element 0 uses Seed itself, so a one-element seeded batch
// matches a seeded PredictSampled), independent of how the batch is
// partitioned across workers.
func (p *Predictor) PredictBatchSampled(ctx context.Context, xs []sparse.Vector, k int, opts ...PredictOpts) ([][]int32, [][]float32, error) {
	return p.predictBatch(ctx, xs, k, modeEvalSampled, opts...)
}

func (p *Predictor) predictBatch(ctx context.Context, xs []sparse.Vector, k int, mode forwardMode, opts ...PredictOpts) ([][]int32, [][]float32, error) {
	if len(xs) == 0 {
		return nil, nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	seeded := mode == modeEvalSampled && len(opts) > 0
	workers := min(defaultThreads(), len(xs))
	states, err := p.acquireStates(workers, seeded)
	if err != nil {
		return nil, nil, err
	}
	defer p.releaseStates(states, seeded)

	ids := make([][]int32, len(xs))
	scores := make([][]float32, len(xs))
	var cancelled atomic.Bool
	parallelIndexed(workers, len(xs), func(w, lo, hi int) {
		st := states[w]
		for i := lo; i < hi; i++ {
			if cancelled.Load() {
				return
			}
			if ctx.Err() != nil {
				cancelled.Store(true)
				return
			}
			if seeded {
				st.reseed(elemSeed(opts[0].Seed, i))
			}
			ids[i], scores[i] = p.n.predictInto(st, xs[i], k, mode)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return ids, scores, nil
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

// PredictBatchInto is PredictBatch/PredictBatchSampled writing into a
// caller-owned BatchResults instead of allocating per-element result
// slices — the allocation-free bulk entry point. Semantics match
// predictBatch exactly: exact or sampled mode, per-element seeding when
// a PredictOpts is passed with sampled=true, cancellation checked
// between elements.
func (p *Predictor) PredictBatchInto(ctx context.Context, xs []sparse.Vector, k int, sampled bool, res *BatchResults, opts ...PredictOpts) error {
	if len(xs) == 0 {
		res.prepare(0, 0)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	mode := modeEvalFull
	if sampled {
		mode = modeEvalSampled
	}
	seeded := sampled && len(opts) > 0
	workers := min(defaultThreads(), len(xs))
	if workers == 1 {
		// Inline path: one pooled state, no goroutine fan-out, no
		// closure — zero steady-state allocations.
		st, err := p.getState(seeded)
		if err != nil {
			return err
		}
		defer p.putState(st, seeded)
		res.prepare(len(xs), k)
		for i := range xs {
			if err := ctx.Err(); err != nil {
				return err
			}
			if seeded {
				st.reseed(elemSeed(opts[0].Seed, i))
			}
			res.IDs[i], res.Scores[i] = p.n.predictIntoBuf(st, xs[i], k, mode, res.IDs[i], res.Scores[i])
		}
		return nil
	}
	states, err := p.acquireStates(workers, seeded)
	if err != nil {
		return err
	}
	defer p.releaseStates(states, seeded)

	res.prepare(len(xs), k)
	var cancelled atomic.Bool
	parallelIndexed(workers, len(xs), func(w, lo, hi int) {
		st := states[w]
		for i := lo; i < hi; i++ {
			if cancelled.Load() {
				return
			}
			if ctx.Err() != nil {
				cancelled.Store(true)
				return
			}
			if seeded {
				st.reseed(elemSeed(opts[0].Seed, i))
			}
			res.IDs[i], res.Scores[i] = p.n.predictIntoBuf(st, xs[i], k, mode, res.IDs[i], res.Scores[i])
		}
	})
	return ctx.Err()
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

// predictInto runs one forward pass and extracts top-k ids and scores in
// one selection pass over the output layer's active set, returning fresh
// result slices.
func (n *Network) predictInto(st *elemState, x sparse.Vector, k int, mode forwardMode) ([]int32, []float32) {
	return n.predictIntoBuf(st, x, k, mode, nil, nil)
}

// predictIntoBuf is predictInto appending into caller buffers: the
// forward pass runs on pooled state, top-k selection reuses the state's
// Selector scratch, and ids/scores grow only until their capacity covers
// k — after which the whole path is allocation-free.
func (n *Network) predictIntoBuf(st *elemState, x sparse.Vector, k int, mode forwardMode, ids []int32, scores []float32) ([]int32, []float32) {
	n.forwardElem(st, x, nil, mode)
	out := &st.layers[len(st.layers)-1]
	pos := st.sel.TopKInto(st.topkPos, out.vals, k)
	st.topkPos = pos
	ids, scores = ids[:0], scores[:0]
	for _, p := range pos {
		scores = append(scores, out.vals[p])
		if out.full {
			ids = append(ids, p)
		} else {
			ids = append(ids, out.ids[p])
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
