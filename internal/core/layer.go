package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/hashtable"
	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/rng"
)

// Layer is one fully connected layer: neuron-major weight rows, biases,
// Adam moments, and — when sampled — the LSH family plus (K, L) hash
// tables holding neuron ids keyed by their weight vectors (§3.1, Fig. 2).
type Layer struct {
	idx int // position in the network, for diagnostics
	in  int // fan-in (previous layer size or InputDim)
	out int // neuron count
	cfg LayerConfig

	// w[j] is neuron j's weight row (length in); mW/vW are the aligned
	// Adam moments and gW the shared batch-gradient buffer that worker
	// threads accumulate into (§3.1 HOGWILD accumulation). Depending on
	// Config.Layout the rows live in shared arena slabs or in one
	// allocation per neuron.
	w  [][]float32
	mW [][]float32
	vW [][]float32
	gW [][]float32
	// b, mB, vB, gB are biases, their moments and gradient.
	b  []float32
	mB []float32
	vB []float32
	gB []float32

	// touched[j] == batchEpoch marks neuron j as having accumulated
	// gradient this batch; colStamp (nil for small fan-in layers) marks
	// touched input columns the same way. On the sharded (fused-kernel)
	// path workers never write them: beginFold stamps both from the shard
	// lists at the quiesced batch boundary, single-threaded. Only the
	// KernelLegacy shared-gW backward stores them from worker threads
	// (racy same-value stores, which is benign).
	touched    []uint32
	colStamp   []uint32
	colList    []int32   // scratch for the per-batch touched-column list
	rowList    []int32   // scratch for the per-batch touched-row list
	scanParts  [][]int32 // scanStamps' per-worker partial lists
	batchEpoch uint32

	// fold is the update phase's per-batch scratch: the live shards, the
	// row/column union and the folded-row buffers (see gradFold).
	fold gradFold

	// fam and tables implement the adaptive sampling; nil for dense
	// layers. tables is a swappable handle: rebuilds construct a detached
	// shadow table set and publish it atomically, so forward passes and
	// Predictor queries stay valid mid-rebuild on whichever set they
	// loaded. memo, when non-nil, holds incremental Simhash re-hash
	// state (§4.2 trick 3; see incremental.go).
	fam    lsh.Family
	tables *hashtable.Handle
	memo   *rehashMemo

	// mirror is the column-major weight mirror the scatter-form forward
	// kernel streams (nil when the layer never scatters: sampled layers,
	// layers whose input is always dense, and KernelLegacy networks).
	// Derived state: ApplyDelta/applyAdamFused dual-write stepped cells
	// and bulk weight restores call refreshMirror. The same one-resident-
	// copy trade snapBuf and the rehashMemo make, spent on forward speed
	// instead of rebuild speed.
	mirror *kernels.Mirror

	// snapBuf is the reusable weight-snapshot buffer for detached
	// rebuilds. At most one rebuild is in flight per network (the train
	// loop owns the pending build), so the buffer is free for reuse by
	// the time the next prepare runs. It trades one resident weight copy
	// per training sampled layer — the same trade the rehashMemo makes —
	// for not allocating out*in floats of garbage on every rebuild.
	snapBuf []float32

	// Dirty-row incremental rebuild state (§4.2 "Updating Overhead",
	// generalized to every hash family): codeMemo holds every neuron's
	// NumFuncs codes as of its last re-hash, and dirty[j] == hashEpoch
	// marks rows whose weights changed since — the same stamp discipline
	// touched/batchEpoch use for gradients. A rebuild re-hashes only the
	// stamped rows and re-inserts the rest from the memo; because a row's
	// codes are a pure function of its weight row, the resulting table is
	// bit-identical to a full from-scratch build. All nil when
	// Config.FullRebuild disables the path (dirty-marking then costs
	// nothing). dirtyList/dirtySnap/codesBuf are rebuild scratch reused
	// across generations, under the same one-rebuild-in-flight guarantee
	// snapBuf relies on.
	codeMemo  []uint32
	dirty     []uint32
	hashEpoch uint32
	dirtyList []int32
	dirtySnap []float32
	codesBuf  []uint32

	// rowsRehashed/rowsReused count rebuild rows freshly hashed vs
	// re-inserted from the memo, accumulated atomically because shadow
	// builds run on a background goroutine (TrainResult surfaces them).
	rowsRehashed int64
	rowsReused   int64
}

// newLayer builds an initialized layer. Weight initialization is He-style
// for ReLU layers and Xavier-style otherwise, from the network seed.
func newLayer(idx, in int, cfg LayerConfig, netCfg Config, ar *arena.Arena, seed uint64) (*Layer, error) {
	l := &Layer{idx: idx, in: in, out: cfg.Size, cfg: cfg}
	switch netCfg.Layout {
	case LayoutContiguous:
		l.w = ar.AllocRows(cfg.Size, in, netCfg.PadRows)
		l.mW = ar.AllocRows(cfg.Size, in, netCfg.PadRows)
		l.vW = ar.AllocRows(cfg.Size, in, netCfg.PadRows)
		l.gW = ar.AllocRows(cfg.Size, in, netCfg.PadRows)
		l.b = ar.AllocAligned(cfg.Size)
		l.mB = ar.AllocAligned(cfg.Size)
		l.vB = ar.AllocAligned(cfg.Size)
		l.gB = ar.AllocAligned(cfg.Size)
	case LayoutPerNeuron:
		l.w = arena.AllocRowsPerNeuron(cfg.Size, in)
		l.mW = arena.AllocRowsPerNeuron(cfg.Size, in)
		l.vW = arena.AllocRowsPerNeuron(cfg.Size, in)
		l.gW = arena.AllocRowsPerNeuron(cfg.Size, in)
		l.b = make([]float32, cfg.Size)
		l.mB = make([]float32, cfg.Size)
		l.vB = make([]float32, cfg.Size)
		l.gB = make([]float32, cfg.Size)
	default:
		return nil, fmt.Errorf("core: unknown layout %v", netCfg.Layout)
	}
	l.touched = make([]uint32, cfg.Size)
	if in > colTrackThreshold {
		l.colStamp = make([]uint32, in)
	}

	std := float32(math.Sqrt(2.0 / float64(in))) // He init for ReLU
	if cfg.Activation != ActReLU {
		std = float32(math.Sqrt(1.0 / float64(in)))
	}
	r := rng.NewStream(seed, uint64(idx)+0x1a7e4)
	for j := 0; j < cfg.Size; j++ {
		row := l.w[j]
		for i := range row {
			row[i] = std * r.NormFloat32()
		}
	}

	if cfg.Sampled {
		fam, err := lsh.New(cfg.Hash, lsh.Params{
			Dim:            in,
			K:              cfg.K,
			L:              cfg.L,
			Seed:           seed ^ uint64(idx)*0x9e3779b97f4a7c15,
			SimhashDensity: cfg.SimhashDensity,
			BinSize:        cfg.BinSize,
			TopK:           cfg.TopK,
		})
		if err != nil {
			return nil, fmt.Errorf("core: layer %d: %w", idx, err)
		}
		l.fam = fam
		tables, err := hashtable.New(hashtable.Config{
			K:          cfg.K,
			L:          cfg.L,
			CodeBits:   fam.CodeBits(),
			RangePow:   cfg.RangePow,
			BucketSize: cfg.BucketSize,
			Policy:     cfg.Policy,
			Seed:       seed ^ (uint64(idx)+1)*0x517cc1b727220a95,
		})
		if err != nil {
			return nil, fmt.Errorf("core: layer %d: %w", idx, err)
		}
		l.tables = hashtable.NewHandle(tables)
		if !netCfg.FullRebuild {
			// Every row starts dirty: the construction-time build hashes
			// the whole layer and seeds the memo.
			l.codeMemo = ar.AllocUint32(cfg.Size * fam.NumFuncs())
			l.dirty = make([]uint32, cfg.Size)
			l.hashEpoch = 1
			for j := range l.dirty {
				l.dirty[j] = 1
			}
		}
	}
	return l, nil
}

// mirrorMaxOut caps the width of layers that maintain a column-major
// weight mirror. The mirror doubles the layer's weight memory, which is
// cheap for the paper architecture's narrow hidden layers (128 neurons)
// and prohibitive for the wide sampled output layer — whose ~0.5% active
// fraction makes the gather form right anyway.
const mirrorMaxOut = 4096

// initMirror builds the layer's column-major mirror when the scatter form
// can ever be selected for it: the layer computes its full output every
// pass (not sampled), is narrow enough for the doubled weight memory, and
// sparseIn reports that its input can arrive sparse (the first layer's
// example features, or a preceding sampled layer's active set). The
// mirror's cells are stored in format (fp32 exact or bf16 quantized) and
// its slab comes from the network arena, cache-line aligned.
func (l *Layer) initMirror(sparseIn bool, format kernels.MirrorFormat, ar *arena.Arena) {
	if l.Sampled() || !sparseIn || l.out > mirrorMaxOut {
		return
	}
	l.mirror = kernels.NewMirrorFormat(l.in, l.out, format, ar)
	l.mirror.Rebuild(l.w)
}

// refreshMirror re-derives the mirror after a bulk weight restore.
func (l *Layer) refreshMirror() {
	if l.mirror != nil {
		l.mirror.Rebuild(l.w)
	}
}

// In returns the layer fan-in.
func (l *Layer) In() int { return l.in }

// Out returns the neuron count.
func (l *Layer) Out() int { return l.out }

// Sampled reports whether the layer uses LSH sampling.
func (l *Layer) Sampled() bool { return l.tables != nil }

// Tables exposes the layer's current hash table set (nil for dense
// layers), for diagnostics and experiments. During a background rebuild
// the returned set is the last published one; it stays valid after a
// swap.
func (l *Layer) Tables() *hashtable.Table {
	if l.tables == nil {
		return nil
	}
	return l.tables.Load()
}

// Weights returns neuron j's weight row. The row aliases live training
// state.
func (l *Layer) Weights(j int) []float32 { return l.w[j] }

// Bias returns neuron j's bias.
func (l *Layer) Bias(j int) float32 { return l.b[j] }

// rebuildChunk is the number of neurons hashed per parallel rebuild chunk;
// it bounds the transient code-matrix memory at chunk*K*L*4 bytes.
const rebuildChunk = 4096

// Table lifecycle (§4.2 "Updating Overhead", made non-blocking): a
// rebuild never mutates the live table set. It (1) prepares a read-only
// view of the weights at a batch boundary — a chunked snapshot copy, or
// for memo layers a sparse projection diff — then (2) hashes and inserts
// every neuron into a detached generation-seeded shadow set, and (3)
// publishes the shadow with one atomic handle store. Only step (1) has to
// run while training is quiesced; steps (2)-(3) are safe concurrently
// with HOGWILD weight writes and with live Predictor traffic, which is
// what lets Network overlap the expensive build with training batches.

// rebuildSync runs the full lifecycle inline: prepare, build the
// generation-gen shadow from the prepared state, publish.
func (l *Layer) rebuildSync(gen uint64, workers int) {
	if l.tables == nil {
		return
	}
	prep := l.prepareRebuild(workers, false)
	l.tables.Store(l.buildShadow(gen, prep, workers))
}

// rebuildPrep carries what a rebuild's synchronous (quiesced-weights)
// prepare phase hands to the — possibly background — build phase.
type rebuildPrep struct {
	// snap is the full out*in weight snapshot a detached full rebuild
	// hashes from; nil on the incremental and inline paths.
	snap []float32
	// dirty lists the rows whose codes drifted since the last rebuild
	// (ascending); dirtySnap holds exactly those weight rows compacted
	// back to back in the same order, so the detached incremental build
	// reads no live weights. Both alias per-layer scratch that stays
	// stable until the next prepare.
	dirty     []int32
	dirtySnap []float32
}

// prepareRebuild is the synchronous (quiesced-weights) part of a rebuild.
// Memo layers fold the sparse weight diff of their dirty rows into the
// memoized projections; code-memo layers collect the dirty-row list and
// compact-copy those rows; full-rebuild layers snapshot everything when
// the build is detached (copySnap) and hash live rows inline otherwise —
// with no concurrent writers the result is identical either way.
func (l *Layer) prepareRebuild(workers int, copySnap bool) rebuildPrep {
	if l.memo != nil {
		l.diffIncremental(workers)
		return rebuildPrep{}
	}
	if l.codeMemo != nil {
		dirty := l.collectDirtyRows(workers)
		need := len(dirty) * l.in
		if cap(l.dirtySnap) < need {
			l.dirtySnap = make([]float32, need)
		}
		snap := l.dirtySnap[:need]
		parallelIndexed(workers, len(dirty), func(_, lo, hi int) {
			for k := lo; k < hi; k++ {
				copy(snap[k*l.in:(k+1)*l.in], l.w[dirty[k]])
			}
		})
		return rebuildPrep{dirty: dirty, dirtySnap: snap}
	}
	if !copySnap {
		return rebuildPrep{}
	}
	return rebuildPrep{snap: l.snapshotRows(workers)}
}

// collectDirtyRows gathers the rows stamped dirty in the current hash
// epoch into the reusable dirtyList and advances the epoch, so rows the
// next batches touch land in the next rebuild's set. Must run with
// training quiesced. On the rare epoch wrap all stamps are cleared so
// stale values can never collide with re-issued epochs (the beginBatch
// pattern).
func (l *Layer) collectDirtyRows(workers int) []int32 {
	l.dirtyList = l.scanStamps(l.dirty, l.hashEpoch, workers, l.dirtyList)
	l.hashEpoch++
	if l.hashEpoch == 0 {
		clear(l.dirty)
		l.hashEpoch = 1
	}
	return l.dirtyList
}

// markAllRowsDirty invalidates the whole code memo — called after bulk
// weight restores, where every memoized code may be stale.
func (l *Layer) markAllRowsDirty() {
	if l.dirty == nil {
		return
	}
	for j := range l.dirty {
		l.dirty[j] = l.hashEpoch
	}
}

// snapshotRows copies every neuron's weight row into the layer's flat
// out*in snapshot buffer, parallelized across workers. It must run at a
// batch boundary (training workers quiesced): the copy is then the only
// part of an asynchronous rebuild that reads live weights, which keeps
// the detached build race-free against HOGWILD writers by construction —
// and it is the only synchronous cost the async lifecycle leaves in the
// training loop, so it is one parallel pass with a single join and no
// steady-state allocation.
func (l *Layer) snapshotRows(workers int) []float32 {
	if l.snapBuf == nil {
		l.snapBuf = make([]float32, l.out*l.in)
	}
	snap := l.snapBuf
	parallelIndexed(workers, l.out, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			copy(snap[j*l.in:(j+1)*l.in], l.w[j])
		}
	})
	return snap
}

// buildShadow constructs the generation-gen shadow table set without
// publishing it. Memo layers derive codes from the (quiesced) memoized
// projections; code-memo layers re-hash only the prepared dirty rows and
// insert everything from the memo; full-rebuild layers hash prep.snap
// when non-nil or the live weight rows when nil. Building from prepared
// state touches no live training state, so it may run on a background
// goroutine while training and inference continue on the published set.
func (l *Layer) buildShadow(gen uint64, prep rebuildPrep, workers int) *hashtable.Table {
	shadow := l.tables.Load().Shadow(gen)
	if l.memo != nil {
		l.insertFromMemo(shadow, workers)
		return shadow
	}
	if l.codeMemo != nil {
		l.rehashDirty(prep, workers)
		l.insertFromCodes(shadow, workers)
		atomic.AddInt64(&l.rowsRehashed, int64(len(prep.dirty)))
		atomic.AddInt64(&l.rowsReused, int64(l.out-len(prep.dirty)))
		return shadow
	}
	if prep.snap != nil {
		l.insertAllBlock(shadow, prep.snap, workers)
	} else {
		l.insertAll(shadow, func(j int) []float32 { return l.w[j] }, workers)
	}
	atomic.AddInt64(&l.rowsRehashed, int64(l.out))
	return shadow
}

// rehashDirty batch-hashes the prepared dirty-row snapshot block-wise
// (lsh.Family.HashDenseRows) and scatters the fresh codes into the code
// memo. Rows outside prep.dirty keep their memoized codes — exactly what
// a full rebuild would recompute, since a row's codes are a pure
// function of its weight row.
func (l *Layer) rehashDirty(prep rebuildPrep, workers int) {
	if workers < 1 {
		workers = 1
	}
	nf := l.fam.NumFuncs()
	codes := l.codesScratch(nf)
	for base := 0; base < len(prep.dirty); base += rebuildChunk {
		n := min(rebuildChunk, len(prep.dirty)-base)
		block := prep.dirtySnap[base*l.in:]
		parallelIndexed(workers, n, func(_, lo, hi int) {
			l.fam.HashDenseRows(block[lo*l.in:hi*l.in], hi-lo, codes[lo*nf:hi*nf])
			for k := lo; k < hi; k++ {
				j := int(prep.dirty[base+k])
				copy(l.codeMemo[j*nf:(j+1)*nf], codes[k*nf:(k+1)*nf])
			}
		})
	}
}

// insertFromCodes inserts every neuron into dst straight from the code
// memo, parallel over tables (the lock-free axis §3.1 identifies). It
// reads no weights at all — the incremental build's hash cost is
// proportional to the dirty fraction while this pass, cheap flat-slab
// appends, covers all rows.
func (l *Layer) insertFromCodes(dst *hashtable.Table, workers int) {
	nf := l.fam.NumFuncs()
	memo := l.codeMemo
	parallelIndexed(min(workers, dst.L()), dst.L(), func(_, lo, hi int) {
		for ti := lo; ti < hi; ti++ {
			for j := 0; j < l.out; j++ {
				dst.InsertInto(ti, uint32(j), memo[j*nf:(j+1)*nf])
			}
		}
	})
}

// codesScratch returns the layer's reusable rebuildChunk*nf code buffer
// (one rebuild in flight per network, so reuse across generations is
// safe — the snapBuf argument).
func (l *Layer) codesScratch(nf int) []uint32 {
	if len(l.codesBuf) < rebuildChunk*nf {
		l.codesBuf = make([]uint32, rebuildChunk*nf)
	}
	return l.codesBuf
}

// insertAll hashes all rows in chunks and inserts them into dst. Hashing
// parallelizes over neurons and insertion over tables, exactly the two
// lock-free axes §3.1 identifies.
func (l *Layer) insertAll(dst *hashtable.Table, row func(j int) []float32, workers int) {
	if workers < 1 {
		workers = 1
	}
	nf := l.fam.NumFuncs()
	codes := l.codesScratch(nf)
	for base := 0; base < l.out; base += rebuildChunk {
		n := min(rebuildChunk, l.out-base)
		parallelIndexed(workers, n, func(_, lo, hi int) {
			for r := lo; r < hi; r++ {
				l.fam.HashDense(row(base+r), codes[r*nf:(r+1)*nf])
			}
		})
		insertChunk(dst, uint32(base), n, nf, codes, workers)
	}
}

// insertAllBlock is insertAll over a contiguous row-major weight block,
// which lets the hash phase run block-wise through HashDenseRows.
func (l *Layer) insertAllBlock(dst *hashtable.Table, block []float32, workers int) {
	if workers < 1 {
		workers = 1
	}
	nf := l.fam.NumFuncs()
	codes := l.codesScratch(nf)
	for base := 0; base < l.out; base += rebuildChunk {
		n := min(rebuildChunk, l.out-base)
		sub := block[base*l.in:]
		parallelIndexed(workers, n, func(_, lo, hi int) {
			l.fam.HashDenseRows(sub[lo*l.in:hi*l.in], hi-lo, codes[lo*nf:hi*nf])
		})
		insertChunk(dst, uint32(base), n, nf, codes, workers)
	}
}

// insertChunk inserts one hashed chunk of n rows (ids base..base+n-1,
// codes row-major in codes) into every table, parallel over tables.
func insertChunk(dst *hashtable.Table, base uint32, n, nf int, codes []uint32, workers int) {
	parallelIndexed(min(workers, dst.L()), dst.L(), func(_, lo, hi int) {
		for ti := lo; ti < hi; ti++ {
			for r := 0; r < n; r++ {
				dst.InsertInto(ti, base+uint32(r), codes[r*nf:(r+1)*nf])
			}
		}
	})
}
