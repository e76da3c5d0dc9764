package core

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/optim"
	"repro/internal/vecmath"
)

// SparseDelta is one batch's gradient in explicit, first-class form: for
// every layer, the touched storage rows as a block of dense rows over the
// layer's columns, and the touched neurons' bias gradients. This is the
// s²-sparse payload §3.1 argues a batch produces and §6 proposes shipping
// between data-parallel replicas ("communication costs are minimal due to
// sparse gradients"): Network.ExtractDelta copies the batch's folded rows
// into this form at a batch boundary, replicas exchange and merge deltas
// (internal/dist), and Layer.ApplyDelta performs the Adam step over the
// delta's nonzero cells.
//
// Values are raw sums, not batch averages: the consumer passes 1/B (or
// 1/(B*shards) after a data-parallel merge) to ApplyDelta, so merging is a
// plain cell-wise sum and the merged step equals the step a single process
// would take on the combined batch. Zero means "no gradient" everywhere: a
// zero cell or bias is never stepped, whether it was never touched or its
// contributions cancelled, locally or across shards.
type SparseDelta struct {
	// Layers holds one LayerDelta per network layer, in layer order.
	Layers []LayerDelta
}

// LayerDelta is one layer's slice of a SparseDelta in the layer's storage
// orientation (see Layer, StorageShape): a block of touched storage rows —
// inputs on the input-major first layer, neurons on every other layer —
// each a dense vector over the layer's columns, plus the bias gradients of
// the touched neurons.
type LayerDelta struct {
	// Rows lists the touched storage rows, strictly ascending.
	Rows []int32
	// Cols is the layer-wide column set every row is aligned to, strictly
	// ascending within the storage row width; nil when each row spans the
	// storage row's full width. A layer that folds rows over the batch's
	// touched input columns (a sampled first layer) carries that union.
	Cols []int32
	// Vals holds len(Rows) rows of width values, row-major, where width is
	// len(Cols), or the storage row width when Cols is nil: row Rows[r] is
	// Vals[r*width:(r+1)*width]. A zero value carries no gradient.
	Vals []float32
	// Neurons lists the touched neurons, strictly ascending, and Bias their
	// raw bias gradient sums; a zero bias carries no gradient.
	Neurons []int32
	Bias    []float32
}

// reset prepares d for reuse with the given layer count, keeping all
// backing arrays.
func (d *SparseDelta) reset(layers int) {
	if cap(d.Layers) < layers {
		d.Layers = make([]LayerDelta, layers)
	}
	d.Layers = d.Layers[:layers]
	for i := range d.Layers {
		d.Layers[i].reset()
	}
}

func (ld *LayerDelta) reset() {
	ld.Rows = ld.Rows[:0]
	ld.Cols = ld.Cols[:0]
	ld.Vals = ld.Vals[:0]
	ld.Neurons = ld.Neurons[:0]
	ld.Bias = ld.Bias[:0]
}

// width returns the number of values per row, or 0 for a delta without
// rows. A full-width row block takes its width from Vals.
func (ld *LayerDelta) width() int {
	switch {
	case ld.Cols != nil:
		return len(ld.Cols)
	case len(ld.Rows) == 0:
		return 0
	default:
		return len(ld.Vals) / len(ld.Rows)
	}
}

// Cells returns the number of gradient cells the delta carries — nonzero
// weight cells plus nonzero biases, the cells ApplyDelta steps. This is the
// TouchedPerIter payload unit; the zero slots of a row block are not cells.
func (d *SparseDelta) Cells() int64 {
	var total int64
	for i := range d.Layers {
		ld := &d.Layers[i]
		total += int64(vecmath.CountNonZero(ld.Vals) + vecmath.CountNonZero(ld.Bias))
	}
	return total
}

// Clone returns a deep copy, for callers that must retain a delta past
// the producer's next reuse of its scratch buffers. A nil column set stays
// nil.
func (d *SparseDelta) Clone() *SparseDelta {
	out := &SparseDelta{Layers: make([]LayerDelta, len(d.Layers))}
	for i := range d.Layers {
		ld := &d.Layers[i]
		out.Layers[i] = LayerDelta{
			Rows:    slices.Clone(ld.Rows),
			Cols:    slices.Clone(ld.Cols),
			Vals:    slices.Clone(ld.Vals),
			Neurons: slices.Clone(ld.Neurons),
			Bias:    slices.Clone(ld.Bias),
		}
	}
	return out
}

// DeltaExchanger merges one replica's batch gradient with its peers'
// (§6: data-parallel SLIDE with sparse-gradient exchange). Train calls
// Exchange once per batch with the locally extracted delta; the returned
// delta — the cell-wise sum over all shards, identical on every replica —
// is what the Adam step applies with invB = 1/(BatchSize*Shards).
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
// update into dst (reused when non-nil) and returns it: each layer's
// touched rows are replayed from the batch's records (compactFold) and the
// records consumed, so a second extraction in the same batch is empty, and
// extract-then-ApplyDelta is bit-for-bit the local stepFold path split in
// two. A network that never ran a backward pass extracts an empty delta.
// Must run at a batch boundary (no concurrent backward). workers <= 0
// selects GOMAXPROCS.
func (n *Network) ExtractDelta(dst *SparseDelta, workers int) *SparseDelta {
	defer runtime.KeepAlive(n) // the weights may view a mapped file (see mapping)
	if workers <= 0 {
		workers = defaultThreads()
	}
	n.allocTrainState()
	if dst == nil {
		dst = &SparseDelta{}
	}
	dst.reset(len(n.layers))
	recs := n.takeRecords()
	for li, l := range n.layers {
		l.extract(&dst.Layers[li], recs, workers)
	}
	return dst
}

// ApplyDelta performs the Adam step over the delta's nonzero cells,
// averaging raw sums by invB: w -= alpha*m̂/(sqrt(v̂)+eps) with gradient
// v*invB per nonzero cell v of a row and b*invB per nonzero bias b. It
// returns the number of cells stepped. Shape mismatches — rows, columns or
// neurons out of range or out of order, a row block of the wrong size —
// are rejected before any weight moves, and before a network that has
// not trained yet allocates its moments. workers <= 0 selects GOMAXPROCS.
func (n *Network) ApplyDelta(d *SparseDelta, alpha, invB float32, workers int) (int64, error) {
	defer runtime.KeepAlive(n) // the weights may view a mapped file (see mapping)
	if workers <= 0 {
		workers = defaultThreads()
	}
	if len(d.Layers) != len(n.layers) {
		return 0, fmt.Errorf("core: delta has %d layers, network has %d", len(d.Layers), len(n.layers))
	}
	// Validate every layer before touching any weights: a delta
	// malformed only in a later layer must not leave the earlier layers
	// partially stepped (a caller retrying after the error would
	// double-apply them).
	for li, l := range n.layers {
		if err := l.checkDelta(&d.Layers[li]); err != nil {
			return 0, fmt.Errorf("core: layer %d: %w", li, err)
		}
	}
	n.allocTrainState()
	var total int64
	for li, l := range n.layers {
		total += l.applyDelta(n.adam, &d.Layers[li], alpha, invB, workers)
	}
	return total, nil
}

// StorageShape returns the number of storage rows the layer keeps and
// their width — the rows and full row width of its LayerDelta. The
// input-major first layer (see Layer) keeps one row of Out() weights per
// input; every other layer one row of In() weights per neuron.
func (l *Layer) StorageShape() (rows, width int) {
	if l.inputMajor {
		return l.in, l.out
	}
	return l.out, l.in
}

// checkDelta validates a layer delta against the layer's storage shape:
// rows, columns and neurons strictly ascending and in range, and a row
// block of len(Rows) × width values.
func (l *Layer) checkDelta(ld *LayerDelta) error {
	rows, width := l.StorageShape()
	if !ascendingBelow(ld.Rows, rows) {
		return fmt.Errorf("rows not strictly ascending in [0,%d)", rows)
	}
	if ld.Cols != nil {
		if !ascendingBelow(ld.Cols, width) {
			return fmt.Errorf("columns not strictly ascending in [0,%d)", width)
		}
		width = len(ld.Cols)
	}
	if len(ld.Vals) != len(ld.Rows)*width {
		return fmt.Errorf("%d values for %d rows of %d", len(ld.Vals), len(ld.Rows), width)
	}
	if !ascendingBelow(ld.Neurons, l.out) {
		return fmt.Errorf("neurons not strictly ascending in [0,%d)", l.out)
	}
	if len(ld.Bias) != len(ld.Neurons) {
		return fmt.Errorf("%d biases for %d neurons", len(ld.Bias), len(ld.Neurons))
	}
	return nil
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

// scanSpan is the least number of stamps worth a scanStamps worker of its
// own (a 128 KiB read, tens of microseconds).
const scanSpan = 1 << 15

// scanStamps collects the ascending indices whose stamp equals epoch into
// dst (reused), parallelized across workers — the column union's list of
// touched input columns. The per-worker
// partial lists live on the layer, so a warm scan allocates nothing; like
// every caller it runs with training quiesced.
// A worker gets at least scanSpan stamps: below that a goroutine costs more
// than the scan it takes over.
func (l *Layer) scanStamps(stamps []uint32, epoch uint32, workers int, dst []int32) []int32 {
	workers = max(min(workers, len(stamps)/scanSpan), 1)
	if len(l.scanParts) < workers {
		l.scanParts = append(l.scanParts, make([][]int32, workers-len(l.scanParts))...)
	}
	parts := l.scanParts[:workers]
	for w := range parts {
		parts[w] = parts[w][:0]
	}
	parallelIndexed(workers, len(stamps), func(w, lo, hi int) {
		local := parts[w]
		for i := lo; i < hi; i++ {
			if stamps[i] == epoch {
				local = append(local, int32(i))
			}
		}
		parts[w] = local
	})
	dst = dst[:0]
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// applyDelta runs one Adam step over the delta's nonzero cells (gradient
// v*invB) and nonzero biases, returning the number of cells stepped. Each
// row goes through stepRow exactly as stepFold steps a folded row, so the
// two update paths cannot drift apart numerically, and a full-width row
// takes the vector row step.
func (l *Layer) applyDelta(adam optim.Adam, ld *LayerDelta, alpha, invB float32, workers int) int64 {
	w := ld.width()
	stepped := l.claimRows(workers, len(ld.Rows), func(_, lo, hi int) int64 {
		var n int64
		for r := lo; r < hi; r++ {
			if r+1 < hi {
				l.prefetchRow(ld.Rows[r], ld.Rows[r+1], ld.Cols)
			}
			n += l.stepRow(adam, ld.Rows[r], ld.Cols, ld.Vals[r*w:(r+1)*w], alpha, invB)
		}
		return n
	})
	for k, j := range ld.Neurons {
		stepped += l.stepBias(adam, j, ld.Bias[k], alpha, invB)
	}
	return stepped
}

// claimChunk is the rows an update-phase worker claims at a time. A row's
// cost follows its contribution count — an output neuron active in one
// element of the batch or in forty — so static halves of the ascending
// rows left one worker idle for a third of the output layer's step. 32
// rows balance the few hundred to few thousand rows of a batch's layer
// while a worker touches the shared cursor only once per tens of
// microseconds of work.
const claimChunk = 32

// claimRows calls step(wk, lo, hi) for chunks of at most claimChunk rows
// of [0, n), claimed in turn from the fold's cursor by up to workers
// goroutines (wk is the claiming worker's index), and returns the total of
// the counts step returns. Each row has a single writer, and which worker
// takes a row changes nothing the row computes.
func (l *Layer) claimRows(workers, n int, step func(wk, lo, hi int) int64) int64 {
	f := &l.fold
	f.applied = growTo(f.applied, max(workers, 1))
	clear(f.applied)
	f.next.Store(0)
	parallelIndexed(workers, (n+claimChunk-1)/claimChunk, func(wk, _, _ int) {
		var done int64
		for {
			lo := int(f.next.Add(claimChunk)) - claimChunk
			if lo >= n {
				break
			}
			done += step(wk, lo, min(lo+claimChunk, n))
		}
		f.applied[wk] = done
	})
	var total int64
	for _, c := range f.applied {
		total += c
	}
	return total
}

// stepRow is the one Adam row step of the update phase: storage row r's
// cells cols[k] (column k when cols is nil) with raw gradient sums g[k],
// averaged by invB. Cells whose sum is exactly zero are left unstepped.
// Returns the number of cells stepped.
func (l *Layer) stepRow(adam optim.Adam, r int32, cols []int32, g []float32, alpha, invB float32) int64 {
	return int64(adam.StepCells(l.w[r], l.mW[r], l.vW[r], cols, g, invB, alpha, true))
}

// prefetchRow hints storage row next's weights and moments into cache while
// the claimed row before it, cur, is stepped. It skips a next row that
// follows cur in storage, which the hardware prefetcher already streams,
// and a column-union step, which touches only scattered cells of a row.
func (l *Layer) prefetchRow(cur, next int32, cols []int32) {
	if next == cur+1 || cols != nil {
		return
	}
	vecmath.Prefetch(l.w[next])
	vecmath.Prefetch(l.mW[next])
	vecmath.Prefetch(l.vW[next])
}

// stepBias steps neuron j's bias with raw gradient sum gb averaged by invB,
// unless gb is zero, and returns the number of cells stepped.
func (l *Layer) stepBias(adam optim.Adam, j int32, gb, alpha, invB float32) int64 {
	if gb == 0 {
		return 0
	}
	adam.Step1(&l.b[j], &l.mB[j], &l.vB[j], gb*invB, alpha)
	return 1
}

// MergeDeltas sums parts cell-wise into dst (reused when non-nil) and
// returns it: per layer, the union of the parts' rows, each the sum of the
// parts' rows in part order, and the union of their neurons with biases
// summed the same way. Every replica merging the same parts in the same
// order therefore produces bit-identical results — the invariant that
// keeps data-parallel replicas' weights in lockstep. Rows over different
// column sets merge over the union of the sets, or at full width when any
// part's rows are. A single part is returned as-is without copying.
func MergeDeltas(dst *SparseDelta, parts []*SparseDelta) (*SparseDelta, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: merging zero deltas")
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	layers := len(parts[0].Layers)
	for _, p := range parts[1:] {
		if len(p.Layers) != layers {
			return nil, fmt.Errorf("core: merging deltas with %d and %d layers", layers, len(p.Layers))
		}
	}
	if dst == nil {
		dst = &SparseDelta{}
	}
	dst.reset(layers)
	lds := make([]*LayerDelta, len(parts))
	for li := 0; li < layers; li++ {
		for k, p := range parts {
			lds[k] = &p.Layers[li]
		}
		if err := mergeLayerDeltas(&dst.Layers[li], lds); err != nil {
			return nil, fmt.Errorf("core: merging layer %d: %w", li, err)
		}
	}
	return dst, nil
}

// mergeSpan is the least number of merged values worth a merge worker of
// its own.
const mergeSpan = 1 << 16

// mergeLayerDeltas merges one layer's parts row by row: a row present in
// one part is copied, and each further part's row is added onto it with
// Axpy(1, ·), which rounds exactly like +. A part whose column set is not
// the merged one scatter-adds through its columns' merged positions. The
// merged rows are listed first and then summed in contiguous spans across
// workers, each row by one: a replica waits on the merge with its trainer
// idle. A merged row or bias that is NaN or ±Inf — finite parts can
// overflow, and a replica's own part is never decoded — fails the merge,
// so no replica applies it: every replica merges the same parts in the
// same order and refuses alike.
func mergeLayerDeltas(dst *LayerDelta, parts []*LayerDelta) error {
	for _, p := range parts {
		if len(p.Bias) != len(p.Neurons) {
			return fmt.Errorf("%d biases for %d neurons", len(p.Bias), len(p.Neurons))
		}
	}
	width, pos, err := mergeColumns(dst, parts)
	if err != nil {
		return err
	}
	lists := make([][]int32, len(parts))
	for k, p := range parts {
		lists[k] = p.Rows
	}
	dst.Rows = unionIDs(dst.Rows, lists)
	n := len(dst.Rows)
	dst.Vals = slices.Grow(dst.Vals, n*width)[:n*width]
	workers := max(min(defaultThreads(), n*width/mergeSpan), 1)
	nonFinite := make([]bool, workers)
	parallelIndexed(workers, n, func(wk, lo, hi int) {
		cur := make([]int, len(parts))
		for k, p := range parts {
			cur[k], _ = slices.BinarySearch(p.Rows, dst.Rows[lo])
		}
		for r := lo; r < hi; r++ {
			slot := dst.Vals[r*width : (r+1)*width]
			first := true
			for k, p := range parts {
				i := cur[k]
				if i >= len(p.Rows) || p.Rows[i] != dst.Rows[r] {
					continue
				}
				cur[k]++
				pw := p.width()
				src := p.Vals[i*pw : (i+1)*pw]
				switch {
				case pos[k] != nil:
					if first {
						clear(slot)
					}
					for t, at := range pos[k] {
						slot[at] += src[t]
					}
				case first:
					copy(slot, src)
				default:
					vecmath.Axpy(1, src, slot)
				}
				first = false
			}
			if !vecmath.AllFinite(slot) {
				nonFinite[wk] = true
			}
		}
	})
	mergeBiases(dst, parts)
	if slices.Contains(nonFinite, true) || !vecmath.AllFinite(dst.Bias) {
		return fmt.Errorf("merged gradient is not finite")
	}
	return nil
}

// unionIDs appends the union of strictly ascending id lists to dst,
// ascending.
func unionIDs(dst []int32, lists [][]int32) []int32 {
	cur := make([]int, len(lists))
	for {
		id := int32(-1)
		for k, l := range lists {
			if cur[k] < len(l) && (id < 0 || l[cur[k]] < id) {
				id = l[cur[k]]
			}
		}
		if id < 0 {
			return dst
		}
		for k, l := range lists {
			if cur[k] < len(l) && l[cur[k]] == id {
				cur[k]++
			}
		}
		dst = append(dst, id)
	}
}

// mergeColumns sets dst's column set for the merge of parts and returns
// the merged row width and, per part, where its values land in a merged
// row: nil when its rows already have the merged layout, else the merged
// position of each of its columns. Parts without rows do not take part.
func mergeColumns(dst *LayerDelta, parts []*LayerDelta) (int, [][]int32, error) {
	width, full := 0, false
	for _, p := range parts {
		if len(p.Rows) == 0 {
			continue
		}
		pw := p.width()
		if len(p.Vals) != len(p.Rows)*pw {
			return 0, nil, fmt.Errorf("%d values for %d rows of %d", len(p.Vals), len(p.Rows), pw)
		}
		if p.Cols != nil {
			continue
		}
		if full && pw != width {
			return 0, nil, fmt.Errorf("full-width rows of %d and %d values", width, pw)
		}
		width, full = pw, true
	}
	pos := make([][]int32, len(parts))
	if full {
		dst.Cols = nil
		for k, p := range parts {
			if len(p.Rows) > 0 && p.Cols != nil {
				if !ascendingBelow(p.Cols, width) {
					return 0, nil, fmt.Errorf("columns not strictly ascending in [0,%d)", width)
				}
				pos[k] = p.Cols
			}
		}
		return width, pos, nil
	}
	dst.Cols = dst.Cols[:0]
	for _, p := range parts {
		if len(p.Rows) > 0 {
			dst.Cols = append(dst.Cols, p.Cols...)
		}
	}
	slices.Sort(dst.Cols)
	dst.Cols = slices.Compact(dst.Cols)
	if dst.Cols == nil {
		dst.Cols = []int32{} // an empty column set, not full width
	}
	for k, p := range parts {
		if len(p.Rows) == 0 || slices.Equal(p.Cols, dst.Cols) {
			continue
		}
		pos[k] = make([]int32, len(p.Cols))
		for t, c := range p.Cols {
			at, _ := slices.BinarySearch(dst.Cols, c)
			pos[k][t] = int32(at)
		}
	}
	return len(dst.Cols), pos, nil
}

// mergeBiases sets dst's neurons to the union of the parts' and sums each
// neuron's biases in part order.
func mergeBiases(dst *LayerDelta, parts []*LayerDelta) {
	lists := make([][]int32, len(parts))
	for k, p := range parts {
		lists[k] = p.Neurons
	}
	dst.Neurons = unionIDs(dst.Neurons, lists)
	dst.Bias = slices.Grow(dst.Bias, len(dst.Neurons))[:len(dst.Neurons)]
	clear(dst.Bias)
	for _, p := range parts {
		j := 0
		for i, id := range p.Neurons {
			for dst.Neurons[j] != id {
				j++
			}
			dst.Bias[j] += p.Bias[i]
		}
	}
}
