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

// Layer is one fully connected layer: weights, biases and — when sampled —
// the LSH family plus (K, L) hash tables holding neuron ids keyed by their
// weight vectors (§3.1, Fig. 2). That is all inference reads, and all a
// layer holds until its network first folds or steps a batch: the Adam
// moments and the update phase's per-row scratch arrive then
// (Network.allocTrainState).
//
// A layer stores its weights in one orientation, fixed at construction:
//
//   - neuron-major: w[j] is neuron j's row of in weights. Every layer but
//     an unsampled first one: the gather forward, the backward pass and
//     the table builds walk neuron rows.
//   - input-major (inputMajor): w[i] is input i's row of out weights, one
//     per neuron. The first layer when it is not sampled: it computes
//     every neuron from the example's sparse features, so its forward
//     streams one contiguous out-wide row per feature (the scatter
//     kernel), a batch's gradient touches one row per feature present, and
//     nothing below it needs an activation gradient.
type Layer struct {
	idx int // position in the network, for diagnostics
	in  int // fan-in (previous layer size or InputDim)
	out int // neuron count
	cfg LayerConfig

	// w holds the weights in the layer's orientation, rows viewing the
	// network arena's contiguous slabs — or on a loaded network its model
	// file's weights section — and mW/vW the Adam moments, rows of the
	// same shape viewing the training arena's (nil until the first step).
	// A batch's gradient is replayed from the batch records row by row at
	// the boundary (fold.go), never stored here.
	w  [][]float32
	mW [][]float32
	vW [][]float32
	// inputMajor selects the orientation; inputCols is then the weights as
	// the scatter kernel's operand (w's rows are its columns), nil
	// otherwise.
	inputMajor bool
	inputCols  *kernels.Mirror
	// b, mB, vB are biases and their moments (nil until the first step).
	b  []float32
	mB []float32
	vB []float32
	// file is the mapped model file w and b view, nil unless the network
	// was loaded from one; holding it keeps the file mapped (see mapping).
	file *mapping

	// hits[j] counts neuron j's nonzero δ in the batch being folded; index
	// workers write it at the quiesced batch boundary, each entry by the
	// one worker that owns the neuron. colStamp[i] == batchEpoch (nil
	// unless the layer replays rows over a column union) marks input
	// column i as touched by the batch; the fold stamps it single-threaded.
	// Both are nil until the first step.
	hits       []int32
	colStamp   []uint32
	colList    []int32   // scratch for the per-batch touched-column list
	rowList    []int32   // scratch for the per-batch touched-row list
	scanParts  [][]int32 // scanStamps' per-worker partial lists
	batchEpoch uint32

	// fold is the update phase's per-batch scratch: the row index, the
	// column union and the row buffers (see gradFold).
	fold gradFold

	// fam and tables implement the adaptive sampling; nil for dense
	// layers. tables is a swappable handle: rebuilds construct a detached
	// shadow table set and publish it atomically, so forward passes and
	// Predictor queries stay valid mid-rebuild on whichever set they
	// loaded.
	fam    lsh.Family
	tables *hashtable.Handle

	// snapBuf is the out*in weight snapshot a detached (background)
	// rebuild hashes from, allocated by the first one and reused: at most
	// one rebuild is in flight per network (the train loop owns the
	// pending build), so the buffer is free by the time the next prepare
	// runs. It trades one resident weight copy per training sampled layer
	// for not allocating out*in floats of garbage on every rebuild; a
	// process that only loads and serves never allocates it.
	snapBuf []float32

	// stageBuf and codesBuf are the build's per-chunk scratch — the live
	// rows of one chunk staged contiguously for the block hash kernel
	// (inline builds only), and that chunk's codes — reused across
	// generations under the same one-rebuild-in-flight guarantee. A layer
	// with no training state (mW nil) drops them after each build: outside
	// training, builds are one-offs (a loaded network builds none; its
	// tables come from the file, and SaveModel builds over scratch of its
	// own).
	stageBuf []float32
	codesBuf []uint32

	// rowsHashed counts the rows this layer's builds hashed, accumulated
	// atomically because shadow builds run on a background goroutine
	// (TrainResult.RowsRehashed surfaces it).
	rowsHashed int64
}

// newLayer builds a layer: shapes, weight and bias storage and, when
// sampled, the hash family and an empty table set. The storage is v, a
// loaded model file's sections, or with v nil zeroed slabs of ar.
func newLayer(idx, in int, cfg LayerConfig, ar *arena.Arena, v *layerViews, seed uint64) (*Layer, error) {
	l := &Layer{idx: idx, in: in, out: cfg.Size, cfg: cfg, inputMajor: idx == 0 && !cfg.Sampled}
	rows, width := l.StorageShape()
	var flat []float32 // the weights in storage order, when one slice holds them
	switch {
	case v != nil:
		flat, l.b = v.w, v.b
	case l.inputMajor:
		flat, l.b = ar.AllocAligned(rows*width), ar.AllocAligned(l.out)
	default:
		l.w, l.b = ar.AllocRows(rows, width), ar.AllocAligned(l.out)
	}
	if flat != nil {
		l.w = make([][]float32, rows)
		for r := range l.w {
			l.w[r] = flat[r*width : (r+1)*width : (r+1)*width]
		}
	}
	if l.inputMajor {
		// w's rows are the mirror's columns: one input's weights to every
		// neuron, contiguous.
		l.inputCols = kernels.MirrorOver(l.in, l.out, flat)
	}

	if cfg.Sampled {
		fam, err := lsh.New(cfg.Hash, lsh.Params{
			Dim:            in,
			K:              cfg.K,
			L:              cfg.L,
			Seed:           seed ^ uint64(idx)*0x9e3779b97f4a7c15,
			SimhashDensity: cfg.SimhashDensity,
			BinSize:        cfg.BinSize,
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
	}
	return l, nil
}

// initWeights draws the layer's initial weights from the network seed:
// He-style for ReLU layers and Xavier-style otherwise. It fills each
// storage row — a neuron's weights, or on the input-major layer one
// input's weights to every neuron — in order from the row's own stream,
// keyed by layer and row, with both variates of each polar pair; workers
// split the rows, and since no row's draw depends on another's, the
// weights do not depend on the worker count.
func (l *Layer) initWeights(seed uint64, workers int) {
	std := float32(math.Sqrt(2.0 / float64(l.in))) // He init for ReLU
	if l.cfg.Activation != ActReLU {
		std = float32(math.Sqrt(1.0 / float64(l.in)))
	}
	parallelIndexed(workers, len(l.w), func(_, lo, hi int) {
		var r rng.RNG
		for row := lo; row < hi; row++ {
			r.ReseedStream(seed, uint64(l.idx)<<40|uint64(row)+0x1a7e4)
			r.FillNormal32(l.w[row], std)
		}
	})
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

// Weights returns neuron j's weights, one per input. On a neuron-major
// layer the slice aliases live training state, valid while the network
// is reachable (a loaded network's may view its mapped model file); on
// the input-major first layer (see Layer) it is a fresh copy, and
// writing to it changes nothing.
func (l *Layer) Weights(j int) []float32 {
	if !l.inputMajor {
		return l.w[j]
	}
	row := make([]float32, l.in)
	for i, wi := range l.w {
		row[i] = wi[j]
	}
	return row
}

// Bias returns neuron j's bias.
func (l *Layer) Bias(j int) float32 { return l.b[j] }

// rebuildChunk caps the neurons hashed per parallel rebuild chunk, which
// bounds the chunk's code matrix at rebuildChunk*K*L*4 bytes;
// rebuildStageFloats caps the chunk's staged weight rows (2 MB: a full
// chunk at the paper architecture's 128-wide fan-in, fewer rows per chunk
// on wider layers).
const (
	rebuildChunk       = 4096
	rebuildStageFloats = rebuildChunk * 128
)

// Table lifecycle (§4.2 "Updating Overhead", made non-blocking): a
// rebuild never mutates the live table set. Every build — construction,
// restore, RebuildTables, the scheduled inline and background rebuilds —
// runs the same three steps. (1) Prepare, detached builds only: copy the
// weight rows into snapBuf at a batch boundary. (2) Build: chunk by
// chunk, block-hash the rows (lsh.Family.HashDenseRows) and write their
// bucket addresses into a detached generation-seeded shadow set,
// row-parallel; then place every table's ids, table-parallel. (3)
// Publish the shadow with one atomic handle store. Only step (1) has to
// run while training is quiesced; steps (2)-(3) are safe concurrently
// with training batches (and their boundary weight steps) and with live
// Predictor traffic, which is what lets Network overlap the expensive
// build with training.
//
// There is no incremental re-hash (§4.2 trick 3): one batch touches about
// batch×β output rows and rebuilds are at least RebuildN0 batches apart,
// so every row has drifted by the next rebuild — see README "Hash &
// retrieval path" for the measurements.

// snapshotRows is the prepare step: it copies every neuron's weight row
// into the layer's flat out*in snapshot buffer, parallelized across
// workers. It must run at a batch boundary (training workers quiesced):
// the copy is then the only part of an asynchronous rebuild that reads
// live weights, which keeps the detached build race-free against the
// weight steps by construction — and it is the only synchronous cost the async
// lifecycle leaves in the training loop, so it is one parallel pass with a
// single join and no steady-state allocation.
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
// publishing it. Rows come from snap (a snapshotRows result) when non-nil:
// the build then touches no live training state and may run on a
// background goroutine while training and inference continue on the
// published set. With snap nil the weights must be quiesced, and each
// worker stages its share of the chunk's live rows into stageBuf for the
// block kernel. A row's codes are a pure function of the row and the
// build a pure function of the codes, so both sources build the same
// tables. Hashing and addressing parallelize over neurons, each worker
// addressing its rows while their codes are still in cache, and placement
// over tables: the two lock-free axes §3.1 identifies.
func (l *Layer) buildShadow(gen uint64, snap []float32, workers int) *hashtable.Table {
	var shadow *hashtable.Table
	shadow, l.codesBuf, l.stageBuf = l.build(gen, snap, workers, l.codesBuf, l.stageBuf)
	if l.mW == nil {
		l.stageBuf, l.codesBuf = nil, nil
	}
	atomic.AddInt64(&l.rowsHashed, int64(l.out))
	return shadow
}

// build is buildShadow's pipeline over caller-owned scratch: codes and,
// for a build from the live rows (snap nil), stage, each grown to a chunk
// when shorter and returned for reuse. It counts nothing and touches
// nothing of the layer but its reads of the weights and the published
// set's configuration.
func (l *Layer) build(gen uint64, snap []float32, workers int, codes []uint32, stage []float32) (*hashtable.Table, []uint32, []float32) {
	shadow := l.tables.Load().Shadow(gen)
	shadow.Begin(l.out)
	nf := l.fam.NumFuncs()
	chunk := max(1, min(rebuildChunk, rebuildStageFloats/l.in))
	if len(codes) < chunk*nf {
		codes = make([]uint32, chunk*nf)
	}
	if snap == nil && len(stage) < chunk*l.in {
		stage = make([]float32, chunk*l.in)
	}
	for base := 0; base < l.out; base += chunk {
		n := min(chunk, l.out-base)
		parallelIndexed(workers, n, func(_, lo, hi int) {
			var block []float32
			if snap != nil {
				block = snap[(base+lo)*l.in : (base+hi)*l.in]
			} else {
				block = stage[lo*l.in : hi*l.in]
				for r := lo; r < hi; r++ {
					copy(block[(r-lo)*l.in:], l.w[base+r])
				}
			}
			l.fam.HashDenseRows(block, hi-lo, codes[lo*nf:hi*nf])
			shadow.AddressRows(base+lo, hi-lo, codes[lo*nf:hi*nf], nf)
		})
	}
	shadow.Place(workers)
	return shadow, codes, stage
}
