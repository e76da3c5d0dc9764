package core

import (
	"fmt"
	"math"

	"repro/internal/arena"
	"repro/internal/hashtable"
	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/rng"
	"repro/internal/vecmath"
)

// Layer is one fully connected layer: weights, biases and — when sampled —
// the LSH family plus (K, L) hash tables holding neuron ids keyed by their
// weight vectors (§3.1, Fig. 2). That is all inference reads, and all a
// layer holds until its network first folds or steps a batch: the Adam
// moments — bfloat16 for the weights, rounded stochastically per update,
// row and column, float32 for the biases — and the update phase's per-row
// scratch arrive then
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

	// flat holds the weights in the layer's orientation and storage order,
	// one contiguous slice of the network arena — or on a loaded network
	// its model file's weights section — and w its rows. mW/vW are the
	// weights' Adam moments in bfloat16 (vecmath.WidenBF16/NarrowBF16),
	// one 16-bit slab each in flat's order, so storage row r is cells
	// [r·width, (r+1)·width) (momentRow); nil until the first step. A
	// batch's gradient is replayed from the batch records row by row at
	// the boundary (fold.go), never stored here.
	flat []float32
	w    [][]float32
	mW   []uint16
	vW   []uint16
	// inputMajor selects the orientation; inputCols is then the weights as
	// the scatter kernel's operand (w's rows are its columns), nil
	// otherwise.
	inputMajor bool
	inputCols  *kernels.Mirror
	// b, mB, vB are biases and their float32 moments (nil until the first
	// step).
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

	// rowsHashed counts the rows this layer's builds hashed
	// (TrainResult.RowsRehashed surfaces it).
	rowsHashed int64
}

// newLayer builds a layer: shapes, weight and bias storage and, when
// sampled, the hash family and an empty table set. The storage is v, a
// loaded model file's sections, or with v nil zeroed slabs of ar.
func newLayer(idx, in int, cfg LayerConfig, ar *arena.Arena, v *layerViews, seed uint64) (*Layer, error) {
	l := &Layer{idx: idx, in: in, out: cfg.Size, cfg: cfg, inputMajor: idx == 0 && !cfg.Sampled}
	rows, width := l.StorageShape()
	if v != nil {
		l.flat, l.b = v.w, v.b
	} else {
		l.flat, l.b = ar.AllocAligned(rows*width), ar.AllocAligned(l.out)
	}
	l.w = make([][]float32, rows)
	for r := range l.w {
		l.w[r] = l.flat[r*width : (r+1)*width : (r+1)*width]
	}
	if l.inputMajor {
		// w's rows are the mirror's columns: one input's weights to every
		// neuron, contiguous.
		l.inputCols = kernels.MirrorOver(l.in, l.out, l.flat)
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
// layers), for diagnostics and experiments: the last published one,
// which stays valid after a later publish.
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

// Table lifecycle (§4.2 "Updating Overhead"): a rebuild never mutates the
// live table set. Every build — construction, restore, RebuildTables,
// SaveModel's, the scheduled rebuilds — runs the same two steps from the
// live weight rows, on the goroutine that owns the network, while no
// batch is stepping them. (1) Build: eight rows at a time, transpose the
// rows straight from the contiguous weights, hash them together
// (lsh.Family.HashBlock) and write their bucket addresses into a detached
// generation-seeded shadow set, block-parallel; then place every table's
// ids, table-parallel. (2) Publish the shadow with one atomic handle
// store. Forward passes and Predictor queries stay valid across a publish
// on whichever set they loaded. A scheduled rebuild is RebuildTables at
// its due batch boundary (Network.rebuildTick), so the next batch trains
// on the new set; between rebuilds §4.2's schedule lets the tables go
// stale.
//
// There is no incremental re-hash (§4.2 trick 3): one batch touches about
// batch×β output rows and rebuilds are at least RebuildN0 batches apart,
// so every row has drifted by the next rebuild — see README "Hash &
// retrieval path" for the measurements.

// buildShadow is build, counted in rowsHashed.
func (l *Layer) buildShadow(gen uint64, workers int) *hashtable.Table {
	l.rowsHashed += int64(l.out)
	return l.build(gen, workers)
}

// build constructs the generation-gen shadow table set from the live rows
// without publishing it; the weights must be quiesced. A row's codes are a
// pure function of the row and the build a pure function of the codes, so
// the tables do not depend on workers. Workers claim blocks of eight rows
// — the last padded by repeating its last real row — and hash and address
// each block while it is in cache, over one block's scratch apiece; then
// placement runs over tables: the two lock-free axes §3.1 identifies.
func (l *Layer) build(gen uint64, workers int) *hashtable.Table {
	shadow := l.tables.Load().Shadow(gen)
	shadow.Begin(l.out)
	parallelIndexed(workers, (l.out+7)/8, func(_, lo, hi int) {
		xt, codes := make([]float32, 8*l.in), make([]uint32, 8*l.fam.NumFuncs())
		for base := 8 * lo; base < min(8*hi, l.out); base += 8 {
			n := min(8, l.out-base)
			vecmath.Transpose8(xt, l.flat[base*l.in:(base+n)*l.in], l.in)
			l.fam.HashBlock(xt, codes)
			shadow.AddressBlock(base, n, codes)
		}
	})
	shadow.Place(workers)
	return shadow
}
