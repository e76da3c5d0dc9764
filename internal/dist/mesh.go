package dist

import (
	"fmt"
	"sync"

	"repro/internal/core"
)

// ExchangeStats accounts one exchanger's measured communication: encoded
// bytes submitted (the replica's upload — the §6 sparse payload), encoded
// bytes of merged deltas received (download), and exchange rounds.
type ExchangeStats struct {
	Rounds   int64
	BytesOut int64
	BytesIn  int64
}

// BytesOutPerRound returns the mean measured upload per exchange round.
func (s ExchangeStats) BytesOutPerRound() float64 {
	if s.Rounds == 0 {
		return 0
	}
	return float64(s.BytesOut) / float64(s.Rounds)
}

// BytesInPerRound returns the mean measured download per exchange round.
func (s ExchangeStats) BytesInPerRound() float64 {
	if s.Rounds == 0 {
		return 0
	}
	return float64(s.BytesIn) / float64(s.Rounds)
}

// Mesh is the in-process all-reduce over SparseDeltas: N replicas in one
// process each hold a rank exchanger, every Exchange is a barrier, and
// the last depositor merges all ranks' deltas in rank order — one merge,
// shared read-only by every rank, so all replicas apply bit-identical
// updates. With one shard the mesh degenerates to a loopback that echoes
// the local delta back, which the dist-comm experiment uses as a
// measurement tap (the training step is bit-identical to a local run,
// but every delta's encoded size is measured).
//
// Byte counts are measured through Codec.EncodedSize — the exact wire
// size the TCP transport would ship — without materializing buffers.
type Mesh struct {
	shards int
	codec  *Codec

	mu   sync.Mutex
	cond *sync.Cond
	err  error

	step         int64
	round        int64
	full         bool // current round merged, being picked up
	depositCount int
	pickups      int
	deposits     []*core.SparseDelta
	stops        []bool
	mergeScratch *core.SparseDelta
	merged       *core.SparseDelta
	mergedSize   int64
	stopAll      bool
	stats        []ExchangeStats
}

// NewMesh builds a mesh for the given shard count. codec, when non-nil,
// prices every exchanged delta for the byte accounting; nil disables
// measurement.
func NewMesh(shards int, codec *Codec) *Mesh {
	m := &Mesh{
		shards:   shards,
		codec:    codec,
		deposits: make([]*core.SparseDelta, shards),
		stops:    make([]bool, shards),
		stats:    make([]ExchangeStats, shards),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Rank returns rank r's exchanger. Each rank must be driven by exactly
// one training goroutine.
func (m *Mesh) Rank(r int) core.DeltaExchanger {
	if r < 0 || r >= m.shards {
		panic(fmt.Sprintf("dist: mesh rank %d out of range [0,%d)", r, m.shards))
	}
	return &meshRank{m: m, rank: r}
}

// Fail poisons the mesh: every pending and future Exchange returns err.
// TrainSharded calls it when a replica dies so its peers unblock instead
// of waiting on a barrier that can never fill.
func (m *Mesh) Fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		m.err = err
	}
	m.cond.Broadcast()
}

// Stats returns a snapshot of every rank's exchange accounting.
func (m *Mesh) Stats() []ExchangeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]ExchangeStats(nil), m.stats...)
}

type meshRank struct {
	m    *Mesh
	rank int
}

// Shards implements core.ShardCounter so TrainContext can cross-check
// TrainConfig.Shards against the mesh's group size.
func (mr *meshRank) Shards() int { return mr.m.shards }

// Exchange implements core.DeltaExchanger as a sense barrier: deposit,
// wait for the round to fill, pick the shared merged delta up; the last
// pickup resets the round. Merging happens once, in rank order, under the
// lock — deterministic and identical for every rank.
func (mr *meshRank) Exchange(step int64, local *core.SparseDelta, stop bool) (*core.SparseDelta, bool, error) {
	m := mr.m
	var localSize int64
	if m.codec != nil {
		localSize = int64(m.codec.EncodedSize(local))
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	// A fast rank may lap a slow one: wait for the previous round to be
	// fully drained before depositing into the next.
	for m.err == nil && m.full {
		m.cond.Wait()
	}
	if m.err != nil {
		return nil, false, m.err
	}
	if m.deposits[mr.rank] != nil {
		// Poison like the desync path: the offending rank stops
		// exchanging, so peers waiting on its next deposit would
		// otherwise block forever.
		m.err = fmt.Errorf("dist: mesh rank %d deposited twice in one round", mr.rank)
		m.cond.Broadcast()
		return nil, false, m.err
	}
	if m.depositCount == 0 {
		m.step = step
	} else if step != m.step {
		m.err = fmt.Errorf("dist: mesh desynchronized: rank %d at step %d, group at %d", mr.rank, step, m.step)
		m.cond.Broadcast()
		return nil, false, m.err
	}
	m.deposits[mr.rank] = local
	m.stops[mr.rank] = stop
	m.depositCount++
	myRound := m.round

	if m.depositCount == m.shards {
		merged, err := core.MergeDeltas(m.mergeScratch, m.deposits)
		if err != nil {
			m.err = err
			m.cond.Broadcast()
			return nil, false, err
		}
		if m.shards > 1 {
			m.mergeScratch = merged
		}
		m.merged = merged
		m.stopAll = false
		for _, s := range m.stops {
			m.stopAll = m.stopAll || s
		}
		if m.codec != nil {
			if m.shards == 1 {
				m.mergedSize = localSize
			} else {
				m.mergedSize = int64(m.codec.EncodedSize(merged))
			}
		}
		m.full = true
		m.cond.Broadcast()
	} else {
		for m.err == nil && !(m.full && m.round == myRound) {
			m.cond.Wait()
		}
		// A poison landing after this round merged does not void its
		// result: a replica that exits (and Fails the mesh) right after
		// picking up the final stop-coordinated round must not rob its
		// slower peers of that same round, or they would halt one step
		// behind with diverged weights.
		if !(m.full && m.round == myRound) {
			return nil, false, m.err
		}
	}

	merged, stopAll := m.merged, m.stopAll
	st := &m.stats[mr.rank]
	st.Rounds++
	st.BytesOut += localSize
	st.BytesIn += m.mergedSize
	m.pickups++
	if m.pickups == m.shards {
		m.pickups, m.depositCount = 0, 0
		for i := range m.deposits {
			m.deposits[i] = nil
		}
		m.full = false
		m.round++
		m.cond.Broadcast()
	}
	return merged, stopAll, nil
}
