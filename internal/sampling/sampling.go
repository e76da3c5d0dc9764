// Package sampling implements SLIDE's active-neuron retrieval over LSH
// tables: Vanilla sampling (§4.1, App. B), the paper's recommended
// default, plus the static Random strategy that models the sampled
// softmax baseline (§5.1). Vanilla is the only table-driven strategy
// because it reached the target accuracy first and finished highest in
// README's App. C.1 sweep ("Sampling strategies and bucket policies"),
// against TopK and hard thresholding.
package sampling

import (
	"fmt"

	"repro/internal/hashtable"
	"repro/internal/rng"
)

// Kind names a retrieval strategy for configuration. Kinds are stored as
// integers in model files, so the values are fixed: 1 and 2 were TopK and
// hard thresholding, and Validate refuses them.
type Kind int

const (
	// KindVanilla probes random tables until the target count is reached
	// (O(beta) time; the paper's recommended default).
	KindVanilla Kind = 0
	// KindRandom ignores the tables and samples ids uniformly — the
	// static, input-independent sampling of sampled softmax.
	KindRandom Kind = 3
)

// String returns the configuration name of the kind.
func (k Kind) String() string {
	switch k {
	case KindVanilla:
		return "vanilla"
	case KindRandom:
		return "random"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Validate returns an error naming k unless New can build it.
func (k Kind) Validate() error {
	if k != KindVanilla && k != KindRandom {
		return fmt.Errorf("sampling: unknown strategy %v", k)
	}
	return nil
}

// Params configures a strategy instance.
type Params struct {
	// Kind selects the strategy.
	Kind Kind
	// Beta is the target number of retrieved ids (β_l in the paper):
	// Vanilla stops probing once Beta ids are found, Random draws Beta
	// ids.
	Beta int
	// MinCount is unused: no strategy reads it. It exists for
	// benchmark/probe.go and goes when a benchmark PR stops setting it.
	MinCount int
	// Universe is the id space size [0, Universe) for KindRandom.
	Universe int
	// Seed drives the strategy's own randomness (table probe order,
	// random draws).
	Seed uint64
}

// Strategy retrieves candidate active-neuron ids for a hashed query.
// Implementations are not safe for concurrent use; build one per worker
// with New.
type Strategy interface {
	// Kind reports the strategy kind.
	Kind() Kind
	// Sample appends retrieved ids to dst and returns it. codes is the
	// query's K*L code vector for the table set (ignored by KindRandom).
	// Returned ids are unique.
	Sample(dst []uint32, t *hashtable.Table, codes []uint32) []uint32
	// Reseed resets the strategy's private randomness to the position it
	// would have if freshly constructed with Params.Seed = seed, so two
	// strategies of the same kind and parameters reseeded with equal
	// seeds produce identical Sample outputs for identical queries.
	Reseed(seed uint64)
}

// New builds a strategy instance. universeHint sizes the internal
// deduplication structures and, for KindRandom, defaults Universe.
func New(p Params, universeHint int) (Strategy, error) {
	if err := p.Kind.Validate(); err != nil {
		return nil, err
	}
	if p.Universe == 0 {
		p.Universe = universeHint
	}
	if p.Beta <= 0 {
		return nil, fmt.Errorf("sampling: Beta must be positive for %v", p.Kind)
	}
	base := marker{stamp: make([]uint32, universeHint)}
	r := rng.NewStream(p.Seed, strategyStream)
	if p.Kind == KindVanilla {
		return &vanilla{params: p, marker: base, rng: r}, nil
	}
	if p.Universe <= 0 {
		return nil, fmt.Errorf("sampling: KindRandom requires a positive Universe")
	}
	return &random{params: p, marker: base, rng: r}, nil
}

// strategyStream is the fixed RNG stream all strategies draw from, so a
// strategy's randomness is a pure function of its seed and Reseed can
// reproduce the construction-time stream exactly.
const strategyStream = 0x5a3

// marker is an epoch-stamped visited set, giving O(1) reset between
// queries.
type marker struct {
	epoch uint32
	stamp []uint32
}

func (m *marker) reset() {
	m.epoch++
	if m.epoch == 0 { // stamp wrap: clear and restart
		for i := range m.stamp {
			m.stamp[i] = 0
		}
		m.epoch = 1
	}
}

// mark stamps id, reporting whether this is its first sight this epoch.
func (m *marker) mark(id uint32) bool {
	if m.stamp[id] == m.epoch {
		return false
	}
	m.stamp[id] = m.epoch
	return true
}

// vanilla probes tables in random order, taking whole buckets until Beta
// distinct ids are collected or every table has been visited (App. B:
// O(beta) work).
type vanilla struct {
	params Params
	marker
	rng   *rng.RNG
	order []int
}

func (v *vanilla) Kind() Kind { return KindVanilla }

// Reseed repositions the probe-order stream; the next Sample visits
// tables in the same order a fresh strategy seeded with seed would.
func (v *vanilla) Reseed(seed uint64) { v.rng.Reseed(seed) }

func (v *vanilla) Sample(dst []uint32, t *hashtable.Table, codes []uint32) []uint32 {
	v.reset()
	l := t.L()
	if cap(v.order) < l {
		v.order = make([]int, l)
	}
	order := v.order[:l]
	for i := range order {
		order[i] = i
	}
	v.rng.Shuffle(l, func(a, b int) { order[a], order[b] = order[b], order[a] })
	for _, ti := range order {
		for _, id := range t.Bucket(ti, codes) {
			if v.mark(id) {
				dst = append(dst, id)
				if len(dst) >= v.params.Beta {
					return dst
				}
			}
		}
	}
	return dst
}

// random draws Beta distinct uniform ids from [0, Universe) — the sampled
// softmax baseline's static candidate sampling.
type random struct {
	params Params
	marker
	rng *rng.RNG
}

func (r *random) Kind() Kind { return KindRandom }

// Reseed repositions the draw stream; the next Sample returns the ids a
// fresh strategy seeded with seed would.
func (r *random) Reseed(seed uint64) { r.rng.Reseed(seed) }

func (r *random) Sample(dst []uint32, _ *hashtable.Table, _ []uint32) []uint32 {
	r.reset()
	want := r.params.Beta
	if want > r.params.Universe {
		want = r.params.Universe
	}
	for got := 0; got < want; {
		id := uint32(r.rng.Intn(r.params.Universe))
		if r.mark(id) {
			dst = append(dst, id)
			got++
		}
	}
	return dst
}
