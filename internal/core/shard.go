package core

import (
	"repro/internal/arena"
	"repro/internal/optim"
	"repro/internal/vecmath"
)

// Sharded backward scatter: the multicore refactor of the gradient
// accumulation path.
//
// The PR 5 backward pass bottoms out in a scatter into the layer's shared
// gW buffers — HOGWILD-racy (ModeHogwild) or replayed post-batch
// (ModeBatchSync). Both contend on the same cache
// lines once more than one worker touches the same hot rows, which is
// exactly what the paper's 44-core claim cannot afford. Since the
// sparse-gradient pipeline (PR 4) made "weights only move at batch
// boundaries" an explicit invariant, the whole batch's gradient work is
// free to land in per-worker private buffers instead: each worker owns one
// backShard per layer, writes it with no interference of any kind, and
// ExtractDelta folds the shards at the batch boundary — summing per cell
// in fixed shard order, so the result is deterministic given the
// element-to-worker assignment, and bit-identical to the shared-buffer
// path whenever that assignment is (one thread, or id-sharded BatchSync).
//
// Storage adapts to the layer's input shape, decided once per network
// (the input of a layer is statically sparse or dense in training):
//
//   - dense rows: fan-in ≤ colTrackThreshold or a dense input — each
//     claimed row is an arena-backed, cache-line-aligned slice of l.in
//     floats from the worker's own arena, so two workers' rows never share
//     a line (the false-sharing removal the arena exists for).
//   - sparse rows: wide fan-in with sparse input (the first layer on
//     example features) — the shard keeps a compact per-batch column
//     index (colStamp/colPos/cols) and each row stores values aligned to
//     that index, so memory is O(touched columns), not O(fan-in), per row.
//
// Rows, columns and their buffers are pooled and epoch-keyed: steady state
// claims them back with O(touched) work and zero allocation.
type backShard struct {
	l     *Layer
	ar    *arena.Arena
	dense bool
	// epoch is the l.batchEpoch the shard's contents belong to; any other
	// value (including the post-extraction 0) means logically empty.
	epoch uint32

	// rowStamp[j] == epoch marks neuron j as claimed in this shard;
	// rowPos[j] is then its index into rows/bias/rowBuf.
	rowStamp []uint32
	rowPos   []int32
	rows     []int32   // claimed neuron ids, in claim order, len = claimed count
	bias     []float32 // bias gradient per claimed row (pooled: len only grows)
	// rowBuf[r] is row r's gradient values: length l.in in dense mode,
	// aligned to cols (lazily zero-extended) in sparse mode. Pooled like
	// bias; dense slots come from the worker's arena.
	rowBuf [][]float32

	// Sparse mode's per-batch column index: colStamp[i] == epoch marks
	// input column i as present, colPos[i] is its slot in cols.
	colStamp []uint32
	colPos   []int32
	cols     []int32
	// posBuf is per-element scratch mapping the element's input ids to
	// column slots.
	posBuf []int32
}

// shardSlabFloats sizes each worker arena's slabs (256 KiB of floats).
// Sharded gradient state is small — touched rows of narrow dense layers —
// so big slabs would waste a worker-count multiple of memory.
const shardSlabFloats = 1 << 16

// sync re-keys the shard to the current batch, emptying it in O(1) when it
// still holds an older batch's (already extracted) state.
func (sh *backShard) sync(epoch uint32) {
	if sh.epoch == epoch {
		return
	}
	sh.epoch = epoch
	sh.rows = sh.rows[:0]
	sh.cols = sh.cols[:0]
}

// rowIndex claims (or finds) neuron j's slot this batch and returns it,
// with bias zeroed and the value buffer emptied on a fresh claim.
func (sh *backShard) rowIndex(j int32, epoch uint32) int {
	if sh.rowStamp[j] == epoch {
		return int(sh.rowPos[j])
	}
	r := len(sh.rows)
	sh.rowStamp[j] = epoch
	sh.rowPos[j] = int32(r)
	sh.rows = append(sh.rows, j)
	if r < len(sh.bias) {
		sh.bias[r] = 0
	} else {
		sh.bias = append(sh.bias, 0)
	}
	if r < len(sh.rowBuf) {
		if sh.dense {
			clear(sh.rowBuf[r])
		} else {
			sh.rowBuf[r] = sh.rowBuf[r][:0]
		}
	} else if sh.dense {
		sh.rowBuf = append(sh.rowBuf, sh.ar.AllocAligned(sh.l.in))
	} else {
		sh.rowBuf = append(sh.rowBuf, nil)
	}
	return r
}

// colPositions interns the element's input columns into the shard's
// per-batch column index and returns each id's slot, aligned with inIds.
// The returned slice is shard-owned scratch, valid until the next call.
func (sh *backShard) colPositions(inIds []int32, epoch uint32) []int32 {
	if cap(sh.posBuf) < len(inIds) {
		sh.posBuf = make([]int32, len(inIds))
	}
	pos := sh.posBuf[:len(inIds)]
	for t, i := range inIds {
		if sh.colStamp[i] != epoch {
			sh.colStamp[i] = epoch
			sh.colPos[i] = int32(len(sh.cols))
			sh.cols = append(sh.cols, i)
		}
		pos[t] = sh.colPos[i]
	}
	return pos
}

// sparseRow returns row r's value buffer zero-extended to the current
// column count, growing the backing array geometrically so steady state
// stops allocating once the per-batch column population stabilizes.
func (sh *backShard) sparseRow(r int) []float32 {
	g := sh.rowBuf[r]
	n := len(sh.cols)
	if cap(g) < n {
		ng := make([]float32, len(g), max(n, 2*cap(g)))
		copy(ng, g)
		g = ng
	}
	old := len(g)
	g = g[:n]
	clear(g[old:])
	sh.rowBuf[r] = g
	return g
}

// newShardSet builds one worker's per-layer shard set, all dense rows
// carved from one private arena. Storage mode mirrors the initMirror
// sparse-input chain: a layer's input is sparse when it is first (example
// features) or follows a sampled layer — static per network in training.
func (n *Network) newShardSet() []*backShard {
	ar := arena.New(shardSlabFloats)
	set := make([]*backShard, len(n.layers))
	sparseIn := true
	for li, l := range n.layers {
		sh := &backShard{
			l:        l,
			ar:       ar,
			dense:    !sparseIn || l.in <= colTrackThreshold,
			rowStamp: make([]uint32, l.out),
			rowPos:   make([]int32, l.out),
		}
		if !sh.dense {
			sh.colStamp = make([]uint32, l.in)
			sh.colPos = make([]int32, l.in)
		}
		set[li] = sh
		sparseIn = l.Sampled()
	}
	return set
}

// backShardSet returns worker w's shard set, creating it on first use.
// Sets are keyed by worker index and reused across Train calls, so
// repeated runs on one network don't leak shard state. Safe for
// concurrent first-touch from worker goroutines.
func (n *Network) backShardSet(w int) []*backShard {
	n.shardMu.Lock()
	defer n.shardMu.Unlock()
	if n.layerShards == nil {
		n.layerShards = make([][]*backShard, len(n.layers))
	}
	for len(n.workerShards) <= w {
		n.workerShards = append(n.workerShards, nil)
	}
	if n.workerShards[w] == nil {
		set := n.newShardSet()
		n.workerShards[w] = set
		for li, sh := range set {
			for len(n.layerShards[li]) <= w {
				n.layerShards[li] = append(n.layerShards[li], nil)
			}
			n.layerShards[li][w] = sh
		}
	}
	return n.workerShards[w]
}

// resetShardStamps clears every registered shard's epoch-keyed stamps;
// called on the rare batch-epoch wrap, where stale stamps could collide
// with re-issued epoch values.
func (n *Network) resetShardStamps() {
	n.shardMu.Lock()
	defer n.shardMu.Unlock()
	for _, set := range n.workerShards {
		for _, sh := range set {
			if sh == nil {
				continue
			}
			sh.epoch = 0
			clear(sh.rowStamp)
			clear(sh.colStamp)
		}
	}
}

// accumulateSharded is the fused modes' backward scatter: the same row
// kernels as the shared-buffer path, aimed at the worker's private shard.
// Unlike the legacy path it performs no shared writes at all — not even
// the benign same-value touched/colStamp stores; extraction derives the
// batch's row/column union from the shard lists at the boundary. With
// weights only moving at batch boundaries, that makes the whole fused
// backward race-free by construction (the race detector agrees), while
// keeping HOGWILD's zero-coordination hot loop.
func (l *Layer) accumulateSharded(sh *backShard, ls *layerState, inIds []int32, inVals []float32, inFull bool, acc []float32) {
	epoch := l.batchEpoch
	sh.sync(epoch)
	var pos []int32
	if !sh.dense {
		pos = sh.colPositions(inIds, epoch)
	}
	if ls.full {
		for j := range ls.vals {
			l.accRowSharded(sh, int32(j), ls.delta[j], epoch, inIds, inVals, pos, inFull, acc)
		}
		return
	}
	for a, j := range ls.ids {
		l.accRowSharded(sh, j, ls.delta[a], epoch, inIds, inVals, pos, inFull, acc)
	}
}

func (l *Layer) accRowSharded(sh *backShard, j int32, dj float32, epoch uint32, inIds []int32, inVals []float32, pos []int32, inFull bool, acc []float32) {
	if dj == 0 {
		return
	}
	w := l.w[j]
	r := sh.rowIndex(j, epoch)
	if sh.dense {
		g := sh.rowBuf[r]
		switch {
		case inFull && acc != nil:
			n := len(inVals)
			vecmath.OuterAcc(dj, inVals, w[:n], g[:n], acc[:n])
		case inFull:
			vecmath.Axpy(dj, inVals, g[:len(inVals)])
		case acc != nil:
			vecmath.SparseOuterAcc(dj, inIds, inVals, w, g, acc[:len(inIds)])
		default:
			vecmath.SparseAxpy(dj, inIds, inVals, g)
		}
	} else {
		g := sh.sparseRow(r)
		if acc != nil {
			vecmath.IndexedOuterAcc(dj, inIds, pos, inVals, w, g, acc[:len(inIds)])
		} else {
			vecmath.IndexedAxpy(dj, pos, inVals, g)
		}
	}
	sh.bias[r] += dj
}

// replayRecordShard is accumulateRecordShard's sharded counterpart for
// ModeBatchSync: worker-shard `shard` replays every record's rows with
// id ∈ shard (mod shards) into its own backShard. Each neuron row lives in
// exactly one shard, so the per-cell addition sequence is the record order
// — independent of the thread count, which keeps BatchSync's determinism
// guarantee, now without any shared gradient writes at all.
func replayRecordShard(l *Layer, sh *backShard, lr *layerRecord, shard, shards int) {
	epoch := l.batchEpoch
	sh.sync(epoch)
	var pos []int32
	if !sh.dense && !lr.inFull {
		pos = sh.colPositions(lr.inIds, epoch)
	}
	apply := func(a int, j int32) {
		if int(j)%shards != shard {
			return
		}
		dj := lr.delta[a]
		if dj == 0 {
			return
		}
		r := sh.rowIndex(j, epoch)
		if sh.dense {
			g := sh.rowBuf[r]
			if lr.inFull {
				gn := g[:len(lr.inVals)]
				for i, x := range lr.inVals {
					gn[i] += dj * x
				}
			} else {
				for t, i := range lr.inIds {
					g[i] += dj * lr.inVals[t]
				}
			}
		} else {
			g := sh.sparseRow(r)
			for t := range lr.inIds {
				g[pos[t]] += dj * lr.inVals[t]
			}
		}
		sh.bias[r] += dj
	}
	if lr.full {
		for j := range lr.delta {
			apply(j, int32(j))
		}
		return
	}
	for a, j := range lr.ids {
		apply(a, j)
	}
}

// gradFold is one layer's view of a batch's gradient at the quiesced
// boundary: the shards that hold it, the ascending row/column union, and
// the scratch to sum each touched row's shard buffers exactly once, in
// shard-index order — the one place cross-shard nondeterminism could
// enter, pinned by the fixed order. Two consumers read the folded rows:
// stepFold runs the Adam step straight from them (the local training path)
// and compactFold writes them out as a CSR LayerDelta (Network.ExtractDelta:
// the exchange payload, top-k compression, the public API).
//
// All of it is layer-owned and reused across batches under the
// batch-boundary single-writer rule: only the training loop's goroutine
// (or the caller of ExtractDelta/ApplyDelta) opens a fold.
type gradFold struct {
	live  []*backShard // shards holding this batch's gradient, in shard-index order
	dense bool         // the live shards' storage mode (static per layer)
	rows  []int32      // touched rows, ascending (aliases Layer.rowList)
	// Sparse mode: cols is the touched-column union, ascending (aliases
	// Layer.colList), and perm[k][p] the position in cols of live[k]'s
	// interned column p, built once per batch through colPos (column →
	// position in cols). Nil/unused in dense mode, where a folded row is
	// indexed by column directly.
	cols   []int32
	perm   [][]int32
	colPos []int32
	// rowBuf[wk] is worker wk's folded-row scratch in sparse mode, aligned
	// to cols. Dense rows fold in place into their first owner's buffer.
	rowBuf [][]float32
	// applied[wk] is worker wk's stepped-cell count (stepRows); chunks[wk-1]
	// is worker wk's CSR output before concatenation (compactFold; worker 0
	// writes the destination directly).
	applied []int64
	chunks  []LayerDelta
}

// beginFold opens the batch's fold over shards: it collects the live
// shards, derives the row/column union — the sharded backward makes no
// shared writes, so the union is stamped from the shard lists here and
// collected by the ascending scanStamps machinery — and sizes the
// per-worker scratch. It reports false when no shard holds gradient.
func (l *Layer) beginFold(shards []*backShard, workers int) bool {
	f := &l.fold
	epoch := l.batchEpoch
	f.live = f.live[:0]
	for _, sh := range shards {
		if sh != nil && sh.epoch == epoch && len(sh.rows) > 0 {
			f.live = append(f.live, sh)
		}
	}
	if len(f.live) == 0 {
		return false
	}
	for _, sh := range f.live {
		for _, j := range sh.rows {
			l.touched[j] = epoch
		}
	}
	f.rows = l.touchedRows(workers)
	f.dense = f.live[0].dense
	f.cols = nil
	if f.dense {
		return true
	}
	for _, sh := range f.live {
		for _, i := range sh.cols {
			l.colStamp[i] = epoch
		}
	}
	f.cols = l.touchedColumns(workers)
	f.colPos = growTo(f.colPos, l.in)
	for u, i := range f.cols {
		f.colPos[i] = int32(u)
	}
	f.perm = growTo(f.perm, len(f.live))
	for k, sh := range f.live {
		perm := growTo(f.perm[k], len(sh.cols))
		for p, i := range sh.cols {
			perm[p] = f.colPos[i]
		}
		f.perm[k] = perm
	}
	f.rowBuf = growTo(f.rowBuf, workers)
	for wk := range f.rowBuf {
		f.rowBuf[wk] = growTo(f.rowBuf[wk], len(f.cols))
	}
	return true
}

// growTo returns s resized to n elements, reallocating only when the
// capacity is short. Contents are unspecified.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// foldRow sums touched row r's live shard buffers once, in shard-index
// order, and returns the folded gradient — indexed by column in dense mode
// (the first owner's buffer, summed into in place), aligned to f.cols in
// sparse mode (worker wk's scratch) — and the folded bias gradient. Each
// row is folded by exactly one worker, so the in-place sum has a single
// writer.
func (l *Layer) foldRow(r, wk int) (g []float32, gb float32) {
	f := &l.fold
	j := f.rows[r]
	epoch := l.batchEpoch
	if !f.dense {
		g = f.rowBuf[wk]
		clear(g)
	}
	for k, sh := range f.live {
		if sh.rowStamp[j] != epoch {
			continue
		}
		p := sh.rowPos[j]
		buf := sh.rowBuf[p]
		gb += sh.bias[p]
		switch {
		case !f.dense:
			// A row's buffer is zero-extended lazily, so it may be shorter
			// than the shard's column list; the missing tail is zeros.
			vecmath.IndexedAxpy(1, f.perm[k][:len(buf)], buf, g)
		case g == nil:
			g = buf
		default:
			vecmath.Axpy(1, buf, g)
		}
	}
	return g, gb
}

// endFold marks the live shards consumed: the batch's gradient has been
// stepped or now lives in the compacted delta alone, so a second extract
// in the same batch is empty — the legacy path's zero-as-you-go semantics.
func (l *Layer) endFold() {
	for _, sh := range l.fold.live {
		sh.epoch = 0
	}
}

// stepFold is the fold's local-training consumer: it folds each touched
// row and runs the Adam step straight from the folded row, skipping cells
// whose sum is exactly zero — cell for cell what compactFold followed by
// ApplyDelta does, without materializing the delta in between. Returns the
// number of cells stepped.
func (l *Layer) stepFold(adam optim.Adam, alpha, invB float32, workers int) int64 {
	f := &l.fold
	return l.stepRows(workers, len(f.rows), func(r, wk int) int64 {
		g, gb := l.foldRow(r, wk)
		return l.stepRow(adam, f.rows[r], f.cols, g, gb, alpha, invB, true)
	})
}

// compactFold is the fold's delta consumer: the CSR contract of
// Layer.ExtractDelta (rows ascending, columns ascending within rows, zero
// cells skipped) appended to a reset dst. Workers compact contiguous row
// spans — worker 0, whose span comes first, straight into dst, the others
// into private chunks concatenated behind it in worker order — so each row
// is folded once and no counting pass is needed.
func (l *Layer) compactFold(dst *LayerDelta, workers int) {
	f := &l.fold
	if len(f.chunks) < workers-1 {
		f.chunks = append(f.chunks, make([]LayerDelta, workers-1-len(f.chunks))...)
	}
	for wk := range f.chunks {
		f.chunks[wk].reset()
	}
	dst.Rows = append(dst.Rows, f.rows...)
	dst.RowOff = append(dst.RowOff, 0)
	parallelIndexed(workers, len(f.rows), func(wk, lo, hi int) {
		c := dst
		if wk > 0 {
			c = &f.chunks[wk-1]
		}
		for r := lo; r < hi; r++ {
			g, gb := l.foldRow(r, wk)
			for u, s := range g {
				if s == 0 {
					continue
				}
				i := int32(u)
				if f.cols != nil {
					i = f.cols[u]
				}
				c.Cols = append(c.Cols, i)
				c.Vals = append(c.Vals, s)
			}
			c.Bias = append(c.Bias, gb)
			c.RowOff = append(c.RowOff, int32(len(c.Cols)))
		}
	})
	for wk := range f.chunks {
		c := &f.chunks[wk]
		base := int32(len(dst.Cols))
		for _, off := range c.RowOff {
			dst.RowOff = append(dst.RowOff, base+off)
		}
		dst.Cols = append(dst.Cols, c.Cols...)
		dst.Vals = append(dst.Vals, c.Vals...)
		dst.Bias = append(dst.Bias, c.Bias...)
	}
}

// extractSharded drains the layer's shards into dst — the sharded
// counterpart of Layer.ExtractDelta — and marks them consumed.
func (l *Layer) extractSharded(dst *LayerDelta, shards []*backShard, workers int) {
	dst.reset()
	if !l.beginFold(shards, workers) {
		dst.RowOff = append(dst.RowOff, 0)
		return
	}
	l.compactFold(dst, workers)
	l.endFold()
}
