package core

import (
	"math/bits"
	"time"

	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

func nowNano() int64 { return time.Now().UnixNano() }

// layerState is one batch element's view of one layer: which neurons are
// active and their activations/gradients. It carries the same information
// as the paper's per-neuron batch arrays (Fig. 2), keyed by element
// instead of by neuron, so each worker owns its state outright.
type layerState struct {
	// full marks every neuron active; ids is nil and vals/delta are
	// indexed by neuron id.
	full bool
	// ids lists active neuron ids when !full, ascending and unique.
	ids []int32
	// vals holds post-activation values aligned with ids (or dense when
	// full). For softmax layers vals are the normalized probabilities
	// over the active set.
	vals []float32
	// delta holds dL/d(pre-activation) aligned with vals.
	delta []float32
}

// id returns the neuron id at active position a.
func (ls *layerState) id(a int) int32 {
	if ls.full {
		return int32(a)
	}
	return ls.ids[a]
}

func (ls *layerState) reset(full bool, n int) {
	ls.full = full
	ls.ids = ls.ids[:0]
	if cap(ls.vals) < n {
		ls.vals = make([]float32, 0, n)
		ls.delta = make([]float32, 0, n)
	}
	ls.vals = ls.vals[:0]
	ls.delta = ls.delta[:0]
}

// sizeVals sets the activation buffer to n entries, growing the backing
// arrays when the active set outgrew the reset hint — the
// empty-retrieval fallback can draw Beta ids after reset reserved only
// the (empty) retrieval's worth. delta grows in step so the backward
// pass can always mirror vals' length.
func (ls *layerState) sizeVals(n int) {
	if cap(ls.vals) < n {
		ls.vals = make([]float32, n)
		ls.delta = make([]float32, 0, n)
	}
	ls.vals = ls.vals[:n]
}

// elemState is the per-worker compute state reused across batch elements.
// Nothing in it is shared between workers. Inference passes run on its own
// layers; a training pass runs on its batch position's record instead
// (elemRecord), so the state keeps only scratch and sampling streams.
type elemState struct {
	layers []layerState

	// codes is per-layer hash-code scratch (K*L entries for sampled
	// layers).
	codes [][]uint32
	// strategies holds one private strategy instance per sampled layer.
	strategies []sampling.Strategy
	// sampleBuf receives raw strategy output before id conversion.
	sampleBuf []uint32

	// picked is one bitset per sampled layer (a bit per neuron) that
	// dedups the retrieved ids, forced labels and fallback draws of one
	// active set; emitPicked drains it in ascending id order.
	picked [][]uint64

	// acc is the backward activation-gradient accumulator, sized once to
	// the largest fan-in, so steady-state passes allocate nothing.
	acc []float32
	// terms lists one backward layer's nonzero δ_j with their rows, the
	// activation gradient's AxpyRows terms; grown to the largest active
	// set a training pass has seen.
	terms []vecmath.Term
	// passes counts forward passes, for TrainResult.KernelForwards.
	passes int64

	// rng drives the element's fallback sampling decisions.
	rng *rng.RNG

	// sel and topkPos are the top-k selection scratch (bounded heap +
	// position list) predictIntoBuf reuses, so steady-state prediction
	// performs zero per-call allocations end to end.
	sel     sparse.Selector
	topkPos []int32

	// busyNS accumulates time spent doing useful work, for the Table 2
	// utilization accounting.
	busyNS int64
	// activeSum and activeCount track mean active-set sizes per sampled
	// layer (the paper reports ~1000 of 205K and ~3000 of 670K active).
	activeSum   []int64
	activeCount []int64
	// lossSum/lossCount accumulate training cross-entropy between evals.
	lossSum   float64
	lossCount int64
}

// Seed-derivation constants shared by construction (newElemState),
// request reseeding (reseed) and batch element seeding (elemSeed,
// trainSeed): rngSeedSalt separates the fallback-draw RNG's seed space
// from the strategies', layerSeedMix (the 64-bit golden ratio) strides
// per-layer strategy seeds and batch elements apart, and workerSeedMix
// strides per-worker ones and training steps.
const (
	rngSeedSalt   = 0xe1e3
	layerSeedMix  = 0x9e3779b97f4a7c15
	workerSeedMix = 0xc2b2ae3d27d4eb4f
)

// newElemState builds worker state for the network. Worker w gets
// independent strategy/rng streams derived from seed.
func newElemState(n *Network, seed uint64, w int) (*elemState, error) {
	st := &elemState{
		layers:      make([]layerState, len(n.layers)),
		codes:       make([][]uint32, len(n.layers)),
		strategies:  make([]sampling.Strategy, len(n.layers)),
		picked:      make([][]uint64, len(n.layers)),
		rng:         rng.NewStream(seed^rngSeedSalt, uint64(w)*2+1),
		activeSum:   make([]int64, len(n.layers)),
		activeCount: make([]int64, len(n.layers)),
	}
	maxIn := n.cfg.InputDim
	for li, l := range n.layers {
		if l.in > maxIn {
			maxIn = l.in
		}
		if !l.Sampled() {
			continue
		}
		st.codes[li] = make([]uint32, l.fam.NumFuncs())
		st.picked[li] = make([]uint64, (l.out+63)/64)
		strat, err := sampling.New(sampling.Params{
			Kind:     l.cfg.Strategy,
			Beta:     l.cfg.Beta,
			Universe: l.out,
			Seed:     seed ^ uint64(li)*layerSeedMix ^ uint64(w)*workerSeedMix,
		}, l.out)
		if err != nil {
			return nil, err
		}
		st.strategies[li] = strat
	}
	st.acc = make([]float32, maxIn)
	return st, nil
}

// reseedStream is the fixed stream reseed pins the fallback RNG to,
// replacing the construction-time per-worker stream so seeded results do
// not depend on which pooled worker state serves the call.
const reseedStream = 0x7d5

// reseed re-derives the state's stochastic streams — each sampled layer's
// strategy stream and the fallback-draw RNG — from a request seed instead
// of the construction-time worker index. After reseed(s), a forward pass
// over a given input produces bitwise-identical active sets (and hence
// activations and top-k output) on any worker state of the same network,
// no matter what traffic the state served before.
func (st *elemState) reseed(seed uint64) {
	st.rng.ReseedStream(seed^rngSeedSalt, reseedStream)
	for li, strat := range st.strategies {
		if strat == nil {
			continue
		}
		strat.Reseed(seed ^ uint64(li)*layerSeedMix)
	}
}

// pick adds id to layer li's active set, reporting whether it is new.
func (st *elemState) pick(li int, id int32) bool {
	w, bit := &st.picked[li][id>>6], uint64(1)<<(id&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// emitPicked appends layer li's picked ids to ids in ascending order and
// empties the set, in O(out/64 + picked).
func (st *elemState) emitPicked(li int, ids []int32) []int32 {
	set := st.picked[li]
	for wi, w := range set {
		if w == 0 {
			continue
		}
		set[wi] = 0
		for ; w != 0; w &= w - 1 {
			ids = append(ids, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return ids
}
