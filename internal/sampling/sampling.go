// Package sampling implements SLIDE's active-neuron retrieval strategies
// over LSH tables (§4.1, App. B): Vanilla sampling, TopK sampling and Hard
// Thresholding, plus the static Random strategy that models the sampled
// softmax baseline (§5.1). It also provides the closed-form selection
// probability functions behind Fig. 11.
package sampling

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hashtable"
	"repro/internal/rng"
)

// Kind names a retrieval strategy for configuration.
type Kind int

const (
	// KindVanilla probes random tables until the target count is reached
	// (O(beta) time; the paper's recommended default).
	KindVanilla Kind = iota
	// KindTopK aggregates all L buckets and keeps the beta most frequent
	// ids (highest quality, O(n log n) sorting cost).
	KindTopK
	// KindHardThreshold keeps ids that occur in at least MinCount buckets
	// (TopK quality without the sort).
	KindHardThreshold
	// KindRandom ignores the tables and samples ids uniformly — the
	// static, input-independent sampling of sampled softmax.
	KindRandom
)

// String returns the configuration name of the kind.
func (k Kind) String() string {
	switch k {
	case KindVanilla:
		return "vanilla"
	case KindTopK:
		return "topk"
	case KindHardThreshold:
		return "hard-threshold"
	case KindRandom:
		return "random"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a configuration name into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "vanilla":
		return KindVanilla, nil
	case "topk":
		return KindTopK, nil
	case "hard-threshold":
		return KindHardThreshold, nil
	case "random":
		return KindRandom, nil
	}
	return 0, fmt.Errorf("sampling: unknown strategy %q", s)
}

// Validate returns an error naming k unless New can build it.
func (k Kind) Validate() error {
	if k < KindVanilla || k > KindRandom {
		return fmt.Errorf("sampling: unknown strategy %v", k)
	}
	return nil
}

// Params configures a strategy instance.
type Params struct {
	// Kind selects the strategy.
	Kind Kind
	// Beta is the target number of retrieved ids (β_l in the paper).
	// Vanilla stops probing once Beta ids are found; TopK keeps the Beta
	// most frequent; Random draws Beta ids. Hard thresholding ignores it.
	Beta int
	// MinCount is hard thresholding's minimum bucket-occurrence count m.
	// Zero selects 2.
	MinCount int
	// Universe is the id space size [0, Universe) for KindRandom.
	Universe int
	// Seed drives the strategy's own randomness (table probe order,
	// random draws).
	Seed uint64
}

// Strategy retrieves candidate active-neuron ids for a hashed query.
// Implementations are not safe for concurrent use; clone one per worker
// via NewPool.
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
	// seeds produce identical Sample outputs for identical queries. For
	// deterministic kinds (TopK, hard thresholding) it is a no-op.
	Reseed(seed uint64)
}

// New builds a strategy instance. universeHint sizes the internal
// deduplication structures and, for KindRandom, defaults Universe.
func New(p Params, universeHint int) (Strategy, error) {
	if err := p.Kind.Validate(); err != nil {
		return nil, err
	}
	if p.MinCount == 0 {
		p.MinCount = 2
	}
	if p.Universe == 0 {
		p.Universe = universeHint
	}
	if p.Beta <= 0 && p.Kind != KindHardThreshold {
		return nil, fmt.Errorf("sampling: Beta must be positive for %v", p.Kind)
	}
	base := marker{
		stamp: make([]uint32, universeHint),
		count: make([]uint8, universeHint),
	}
	r := rng.NewStream(p.Seed, strategyStream)
	switch p.Kind {
	case KindVanilla:
		return &vanilla{params: p, marker: base, rng: r}, nil
	case KindTopK:
		return &topK{params: p, marker: base}, nil
	case KindHardThreshold:
		return &hardThreshold{params: p, marker: base}, nil
	default: // KindRandom
		if p.Universe <= 0 {
			return nil, fmt.Errorf("sampling: KindRandom requires a positive Universe")
		}
		return &random{params: p, marker: base, rng: r}, nil
	}
}

// strategyStream is the fixed RNG stream all strategies draw from, so a
// strategy's randomness is a pure function of its seed and Reseed can
// reproduce the construction-time stream exactly.
const strategyStream = 0x5a3

// marker is an epoch-stamped visited set with per-id occurrence counts,
// giving O(1) reset between queries.
type marker struct {
	epoch uint32
	stamp []uint32
	count []uint8
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

// bump increments id's occurrence count, returning the new count (1 on
// first sight this epoch).
func (m *marker) bump(id uint32) int {
	if m.stamp[id] != m.epoch {
		m.stamp[id] = m.epoch
		m.count[id] = 1
		return 1
	}
	if m.count[id] < math.MaxUint8 {
		m.count[id]++
	}
	return int(m.count[id])
}

// vanilla probes tables in random order, taking whole buckets until Beta
// distinct ids are collected or every table has been visited (App. B:
// O(beta) work, lowest quality).
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
			if v.bump(id) == 1 {
				dst = append(dst, id)
				if len(dst) >= v.params.Beta {
					return dst
				}
			}
		}
	}
	return dst
}

// topK aggregates every table's bucket, counts per-id frequencies, and
// keeps the Beta ids with the highest counts (App. B: highest quality,
// pays an O(n log n) sort).
type topK struct {
	params Params
	marker
	seen []uint32
}

func (k *topK) Kind() Kind { return KindTopK }

// Reseed is a no-op: TopK aggregation is deterministic (count-desc,
// id-asc tie break) and draws no randomness.
func (k *topK) Reseed(uint64) {}

func (k *topK) Sample(dst []uint32, t *hashtable.Table, codes []uint32) []uint32 {
	k.reset()
	k.seen = k.seen[:0]
	for ti := 0; ti < t.L(); ti++ {
		for _, id := range t.Bucket(ti, codes) {
			if k.bump(id) == 1 {
				k.seen = append(k.seen, id)
			}
		}
	}
	if len(k.seen) > k.params.Beta {
		sort.Slice(k.seen, func(a, b int) bool {
			ca, cb := k.count[k.seen[a]], k.count[k.seen[b]]
			if ca != cb {
				return ca > cb
			}
			return k.seen[a] < k.seen[b]
		})
		k.seen = k.seen[:k.params.Beta]
	}
	return append(dst, k.seen...)
}

// hardThreshold keeps every id that appears in at least MinCount buckets,
// skipping TopK's sort (App. B eqn. 3).
type hardThreshold struct {
	params Params
	marker
}

func (h *hardThreshold) Kind() Kind { return KindHardThreshold }

// Reseed is a no-op: thresholding scans tables in fixed order and draws
// no randomness.
func (h *hardThreshold) Reseed(uint64) {}

func (h *hardThreshold) Sample(dst []uint32, t *hashtable.Table, codes []uint32) []uint32 {
	h.reset()
	for ti := 0; ti < t.L(); ti++ {
		for _, id := range t.Bucket(ti, codes) {
			if h.bump(id) == h.params.MinCount {
				dst = append(dst, id)
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
		if r.bump(id) == 1 {
			dst = append(dst, id)
			got++
		}
	}
	return dst
}

// SelectionProbability returns the probability that a neuron whose
// per-function collision probability with the query is p is retrieved by
// hard thresholding with parameters (K, L, m): the tail
// sum_{i=m}^{L} C(L,i) (p^K)^i (1-p^K)^{L-i} (paper eqn. 3, Fig. 11).
func SelectionProbability(p float64, k, l, m int) float64 {
	pk := math.Pow(p, float64(k))
	var sum float64
	for i := m; i <= l; i++ {
		sum += binomialPMF(l, i, pk)
	}
	return clamp01(sum)
}

// VanillaSelectionProbability returns the paper's eqn. 2: the probability
// that a neuron is retrieved when vanilla sampling stops after probing tau
// of L tables, (p^K)^tau (1-p^K)^{L-tau}.
func VanillaSelectionProbability(p float64, k, l, tau int) float64 {
	pk := math.Pow(p, float64(k))
	return math.Pow(pk, float64(tau)) * math.Pow(1-pk, float64(l-tau))
}

// AnyBucketProbability returns 1-(1-p^K)^L, the classical probability that
// a (K, L) LSH structure returns the neuron in at least one bucket (§2.1).
func AnyBucketProbability(p float64, k, l int) float64 {
	pk := math.Pow(p, float64(k))
	return clamp01(1 - math.Pow(1-pk, float64(l)))
}

func binomialPMF(n, i int, p float64) float64 {
	logC := lgamma(float64(n+1)) - lgamma(float64(i+1)) - lgamma(float64(n-i+1))
	var logP float64
	switch {
	case p == 0:
		if i == 0 {
			return 1
		}
		return 0
	case p == 1:
		if i == n {
			return 1
		}
		return 0
	default:
		logP = float64(i)*math.Log(p) + float64(n-i)*math.Log(1-p)
	}
	return math.Exp(logC + logP)
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
