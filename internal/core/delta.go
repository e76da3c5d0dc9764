package core

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// SparseDelta is one batch's gradient in explicit, first-class form: the
// batch's records, each element's sufficient factors. A layer's batch
// gradient is a sum of one rank-one product per element — δ ⊗ layer
// input over the element's active neurons — so an element's input, active
// ids, activations and δ are the whole of its contribution, and far fewer
// numbers than the rows they touch. This is the s²-sparse payload §3.1
// argues a batch produces and §6 proposes shipping between data-parallel
// replicas ("communication costs are minimal due to sparse gradients"),
// in the "sufficient factor" form of Xie et al. (2015):
// Network.ExtractDelta copies the batch's records into this form at a
// batch boundary, replicas exchange and concatenate deltas
// (internal/dist, MergeDeltas), and Network.ApplyDelta folds the records
// into one Adam step exactly as local training folds its own.
//
// Record r of a LayerDelta is the span Off[r]:Off[r+1] of each of its
// non-empty arrays. Every replica folds the same records in the same
// order, so the merged step is the step one process takes on the combined
// batch, bit for bit.
type SparseDelta struct {
	// Input is the records' example features, layer 0's input: IDs in
	// the example's own order and their Vals. Its Delta is empty.
	Input LayerDelta
	// Layers holds one LayerDelta per network layer, in layer order.
	Layers []LayerDelta
}

// LayerDelta is one layer's factors for every record of a SparseDelta,
// record after record.
type LayerDelta struct {
	// Off holds records+1 ascending offsets from 0, or none for a delta
	// without records.
	Off []int32
	// IDs lists each record's active neurons, strictly ascending; empty
	// on a full (unsampled) layer, where every neuron is active.
	IDs []int32
	// Delta holds each record's δ (the loss gradient at the
	// pre-activation), aligned with its active neurons: width values a
	// record on a full layer. A zero δ carries no gradient.
	Delta []float32
	// Vals holds each record's activations, aligned like Delta — the next
	// layer's input. Empty on the last layer, whose activations no layer
	// reads.
	Vals []float32
}

// reset prepares d for reuse with the given layer count, keeping all
// backing arrays.
func (d *SparseDelta) reset(layers int) {
	if cap(d.Layers) < layers {
		d.Layers = make([]LayerDelta, layers)
	}
	d.Layers = d.Layers[:layers]
	d.Input.reset()
	for i := range d.Layers {
		d.Layers[i].reset()
	}
}

func (ld *LayerDelta) reset() {
	ld.Off = ld.Off[:0]
	ld.IDs = ld.IDs[:0]
	ld.Delta = ld.Delta[:0]
	ld.Vals = ld.Vals[:0]
}

// add appends one record's factors.
func (ld *LayerDelta) add(ids []int32, delta, vals []float32) {
	if len(ld.Off) == 0 {
		ld.Off = append(ld.Off, 0)
	}
	ld.IDs = append(ld.IDs, ids...)
	ld.Delta = append(ld.Delta, delta...)
	ld.Vals = append(ld.Vals, vals...)
	ld.Off = append(ld.Off, ld.Off[len(ld.Off)-1]+int32(max(len(ids), len(delta), len(vals))))
}

// span returns the length of record r's factors.
func (ld *LayerDelta) span(r int) int { return int(ld.Off[r+1] - ld.Off[r]) }

// Records checks the delta's record structure — every LayerDelta split
// into the same number of records by ascending offsets from 0, each of
// its arrays empty or spanning exactly its records — and returns the
// record count. It does not check the factors against a network's
// shapes: ApplyDelta does.
func (d *SparseDelta) Records() (int, error) {
	records := max(len(d.Input.Off)-1, 0)
	if err := d.Input.checkOffsets(records); err != nil {
		return 0, fmt.Errorf("core: input: %w", err)
	}
	for li := range d.Layers {
		if err := d.Layers[li].checkOffsets(records); err != nil {
			return 0, fmt.Errorf("core: layer %d: %w", li, err)
		}
	}
	return records, nil
}

func (ld *LayerDelta) checkOffsets(records int) error {
	if len(ld.Off) == 0 && records == 0 {
		if len(ld.IDs)+len(ld.Delta)+len(ld.Vals) != 0 {
			return fmt.Errorf("factors without records")
		}
		return nil
	}
	if len(ld.Off) != records+1 || ld.Off[0] != 0 {
		return fmt.Errorf("%d offsets for %d records", len(ld.Off), records)
	}
	for r := range records {
		if ld.Off[r+1] < ld.Off[r] {
			return fmt.Errorf("record %d's offsets descend", r)
		}
	}
	n := int(ld.Off[records])
	for _, l := range []int{len(ld.IDs), len(ld.Delta), len(ld.Vals)} {
		if l != 0 && l != n {
			return fmt.Errorf("%d factors for records spanning %d", l, n)
		}
	}
	return nil
}

// Cells returns the number of gradient products the delta carries: per
// record and layer, the layer input's length times the δ count, plus the
// δ count for the biases. It is the payload unit the codec and merge
// probes divide by; the cells a fold steps are fewer when records share
// rows. A delta whose record structure is broken has no cells.
func (d *SparseDelta) Cells() int64 {
	records, err := d.Records()
	if err != nil {
		return 0
	}
	var total int64
	for r := range records {
		in := int64(d.Input.span(r))
		for li := range d.Layers {
			n := int64(d.Layers[li].span(r))
			total += in*n + n
			in = n
		}
	}
	return total
}

// Clone returns a deep copy, for callers that must retain a delta past
// the producer's next reuse of its scratch buffers.
func (d *SparseDelta) Clone() *SparseDelta {
	out := &SparseDelta{Input: d.Input.clone(), Layers: make([]LayerDelta, len(d.Layers))}
	for i := range d.Layers {
		out.Layers[i] = d.Layers[i].clone()
	}
	return out
}

func (ld *LayerDelta) clone() LayerDelta {
	return LayerDelta{Off: slices.Clone(ld.Off), IDs: slices.Clone(ld.IDs), Delta: slices.Clone(ld.Delta), Vals: slices.Clone(ld.Vals)}
}

// DeltaExchanger merges one replica's batch gradient with its peers'
// (§6: data-parallel SLIDE with sparse-gradient exchange). Train calls
// Exchange once per batch with the locally extracted delta; the returned
// delta — every shard's records in rank order, identical on every
// replica — is what the Adam step folds with invB = 1/(BatchSize*Shards).
//
// stop coordinates early termination: a replica that wants to stop
// (target accuracy reached, deadline, context cancelled) keeps exchanging
// with stop=true, and once any replica signals it, every replica receives
// stopAll=true and breaks after applying that batch's merged delta, so
// all replicas halt at the same step with identical weights.
//
// local is only valid for the duration of the call (the trainer reuses
// its buffers next batch); implementations must copy or encode what they
// retain. The returned delta stays valid until the rank's next Exchange
// call and may be shared read-only between replicas.
type DeltaExchanger interface {
	Exchange(step int64, local *SparseDelta, stop bool) (merged *SparseDelta, stopAll bool, err error)
}

// ShardCounter is optionally implemented by exchangers that know their
// group size. TrainContext cross-checks it against TrainConfig.Shards:
// a mismatch would silently mis-scale the Adam step (wrong invB) or —
// if ranks disagreed — diverge the replicas' weights.
type ShardCounter interface {
	Shards() int
}

// ExtractDelta drains the gradient of the backward passes since the last
// update into dst (reused when non-nil) and returns it: every record
// holding gradient is copied, in batch-position order, and consumed, so a
// second extraction in the same batch is empty, and extract-then-ApplyDelta
// is bit-for-bit the local update phase split in two. A network that
// never ran a backward pass extracts an empty delta. Must run at a batch
// boundary (no concurrent backward). The copy runs on the caller; workers
// is not used.
func (n *Network) ExtractDelta(dst *SparseDelta, workers int) *SparseDelta {
	if dst == nil {
		dst = &SparseDelta{}
	}
	dst.reset(len(n.layers))
	last := len(n.layers) - 1
	for _, rec := range n.takeRecords() {
		dst.Input.add(rec.x.Idx, nil, rec.x.Val)
		for li := range n.layers {
			ls := &rec.layers[li]
			var vals []float32
			if li < last {
				vals = ls.vals
			}
			dst.Layers[li].add(ls.ids, ls.delta, vals)
		}
	}
	return dst
}

// ApplyDelta folds the delta's records into one Adam step, as local
// training folds its own (fold.go), averaging raw sums by invB: every
// touched weight row is replayed from the records in record order and
// stepped, w -= alpha*m̂/(sqrt(v̂)+eps), cells whose sum is zero left
// alone. Any record count is accepted. It returns the number of cells
// stepped. A malformed delta — a broken record structure, ids out of range
// or out of order, a full layer's factors not its width, a non-finite
// factor — is refused before any weight moves, and before a network that
// has not trained yet allocates its moments. workers <= 0 selects
// GOMAXPROCS.
func (n *Network) ApplyDelta(d *SparseDelta, alpha, invB float32, workers int) (int64, error) {
	defer runtime.KeepAlive(n) // the weights may view a mapped file (see mapping)
	if workers <= 0 {
		workers = defaultThreads()
	}
	records, err := n.checkDelta(d)
	if err != nil {
		return 0, err
	}
	n.allocTrainState()
	return n.stepRecords(n.viewRecords(d, records), alpha, invB, workers), nil
}

// checkDelta validates d against the network's shapes and returns its
// record count.
func (n *Network) checkDelta(d *SparseDelta) (int, error) {
	if len(d.Layers) != len(n.layers) {
		return 0, fmt.Errorf("core: delta has %d layers, network has %d", len(d.Layers), len(n.layers))
	}
	records, err := d.Records()
	if err != nil {
		return 0, err
	}
	in := &d.Input
	if total := in.Len(); len(in.IDs) != total || len(in.Delta) != 0 {
		return 0, fmt.Errorf("core: input: %d ids and %d δ for records spanning %d", len(in.IDs), len(in.Delta), total)
	}
	if err := n.checkFeatures(sparse.Vector{Idx: in.IDs, Val: in.Vals}); err != nil {
		return 0, fmt.Errorf("core: input: %w", err)
	}
	if !vecmath.AllFinite(in.Vals) {
		return 0, fmt.Errorf("core: input: non-finite feature value")
	}
	for li, l := range n.layers {
		if err := l.checkFactors(&d.Layers[li], records, li == len(n.layers)-1); err != nil {
			return 0, fmt.Errorf("core: layer %d: %w", li, err)
		}
	}
	return records, nil
}

// Len returns the length of the records' factors: the last offset, or 0
// without records.
func (ld *LayerDelta) Len() int {
	if len(ld.Off) == 0 {
		return 0
	}
	return int(ld.Off[len(ld.Off)-1])
}

// checkFactors validates one layer's factors for records records whose
// offsets Records has checked: a full layer carries no ids and width δ
// per record, a sampled one strictly ascending in-range ids with one δ
// each, every layer but the last its activations, and every value is
// finite.
func (l *Layer) checkFactors(ld *LayerDelta, records int, last bool) error {
	full := !l.Sampled()
	total := ld.Len()
	ids, vals := total, total
	if full {
		ids = 0
	}
	if last {
		vals = 0
	}
	if len(ld.IDs) != ids || len(ld.Delta) != total || len(ld.Vals) != vals {
		return fmt.Errorf("%d ids, %d δ and %d activations for records spanning %d", len(ld.IDs), len(ld.Delta), len(ld.Vals), total)
	}
	for r := range records {
		if full && ld.span(r) != l.out {
			return fmt.Errorf("record %d: %d δ on a full layer of %d", r, ld.span(r), l.out)
		}
		if !full && !ascendingBelow(ld.IDs[ld.Off[r]:ld.Off[r+1]], l.out) {
			return fmt.Errorf("record %d: ids not strictly ascending in [0,%d)", r, l.out)
		}
	}
	if !vecmath.AllFinite(ld.Delta) || !vecmath.AllFinite(ld.Vals) {
		return fmt.Errorf("non-finite factor")
	}
	return nil
}

// viewRecords points the network's view records at d's first records
// records, in order, so the fold reads them as it reads the batch's own.
func (n *Network) viewRecords(d *SparseDelta, records int) []*elemRecord {
	for len(n.views) < records {
		n.views = append(n.views, &elemRecord{layers: make([]layerState, len(n.layers))})
	}
	views := n.views[:records]
	for r, rec := range views {
		in := &d.Input
		lo, hi := in.Off[r], in.Off[r+1]
		rec.x = sparse.Vector{Dim: n.cfg.InputDim, Idx: in.IDs[lo:hi], Val: in.Vals[lo:hi]}
		for li, l := range n.layers {
			ld, ls := &d.Layers[li], &rec.layers[li]
			lo, hi := ld.Off[r], ld.Off[r+1]
			ls.full = !l.Sampled()
			ls.ids, ls.vals = nil, nil
			if !ls.full {
				ls.ids = ld.IDs[lo:hi]
			}
			if len(ld.Vals) != 0 {
				ls.vals = ld.Vals[lo:hi]
			}
			ls.delta = ld.Delta[lo:hi]
		}
	}
	return views
}

// StorageShape returns the number of storage rows the layer keeps and
// their width. The input-major first layer (see Layer) keeps one row of
// Out() weights per input; every other layer one row of In() weights per
// neuron.
func (l *Layer) StorageShape() (rows, width int) {
	if l.inputMajor {
		return l.in, l.out
	}
	return l.out, l.in
}

// ascendingBelow reports whether ids is strictly ascending within [0, n).
func ascendingBelow(ids []int32, n int) bool {
	prev := int32(-1)
	for _, id := range ids {
		if id <= prev {
			return false
		}
		prev = id
	}
	return int(prev) < n
}

// MergeDeltas concatenates parts into dst (reused when non-nil) and
// returns it: every part's records, part after part. Every replica
// merging the same parts in the same order therefore folds the same
// records in the same order — the invariant that keeps data-parallel
// replicas' weights in lockstep. A part with a broken record structure or
// another layer count fails the merge, and so does a NaN or ±Inf factor:
// a replica's own part is never decoded, so the merge is where every
// replica refuses it alike. A single part is returned as-is without
// copying or checking.
func MergeDeltas(dst *SparseDelta, parts []*SparseDelta) (*SparseDelta, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: merging zero deltas")
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	layers := len(parts[0].Layers)
	for k, p := range parts {
		if len(p.Layers) != layers {
			return nil, fmt.Errorf("core: merging deltas with %d and %d layers", layers, len(p.Layers))
		}
		if _, err := p.Records(); err != nil {
			return nil, fmt.Errorf("core: merging part %d: %w", k, err)
		}
	}
	if dst == nil {
		dst = &SparseDelta{}
	}
	dst.reset(layers)
	for _, p := range parts {
		dst.Input.concat(&p.Input)
		for li := range dst.Layers {
			dst.Layers[li].concat(&p.Layers[li])
		}
	}
	finite := vecmath.AllFinite(dst.Input.Vals)
	for li := range dst.Layers {
		finite = finite && vecmath.AllFinite(dst.Layers[li].Delta) && vecmath.AllFinite(dst.Layers[li].Vals)
	}
	if !finite {
		return nil, fmt.Errorf("core: merged factors are not finite")
	}
	return dst, nil
}

// concat appends p's records, whose structure Records has checked.
func (ld *LayerDelta) concat(p *LayerDelta) {
	if len(p.Off) == 0 {
		return
	}
	if len(ld.Off) == 0 {
		ld.Off = append(ld.Off, 0)
	}
	base := ld.Off[len(ld.Off)-1]
	for _, o := range p.Off[1:] {
		ld.Off = append(ld.Off, base+o)
	}
	ld.IDs = append(ld.IDs, p.IDs...)
	ld.Delta = append(ld.Delta, p.Delta...)
	ld.Vals = append(ld.Vals, p.Vals...)
}
