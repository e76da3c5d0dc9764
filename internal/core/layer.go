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

// Layer is one fully connected layer: weights, biases, Adam moments, and —
// when sampled — the LSH family plus (K, L) hash tables holding neuron ids
// keyed by their weight vectors (§3.1, Fig. 2).
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

	// w holds the weights in the layer's orientation and mW/vW the aligned
	// Adam moments, rows viewing the network arena's contiguous slabs. A
	// batch's gradient is replayed from the batch records row by row at the
	// boundary (fold.go), never stored here.
	w  [][]float32
	mW [][]float32
	vW [][]float32
	// inputMajor selects the orientation; inputCols is then the weights as
	// the scatter kernel's operand (w's rows are its columns), nil
	// otherwise.
	inputMajor bool
	inputCols  *kernels.Mirror
	// b, mB, vB are biases and their moments.
	b  []float32
	mB []float32
	vB []float32

	// touched[j] == batchEpoch marks neuron j as having gradient this
	// batch; colStamp (nil unless the layer is input-major or replays rows
	// over a column union) marks touched input columns the same way.
	// Workers never write them: the update phase stamps both at the
	// quiesced batch boundary, single-threaded.
	touched    []uint32
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
	// generations under the same one-rebuild-in-flight guarantee.
	stageBuf []float32
	codesBuf []uint32

	// rowsHashed counts the rows this layer's builds hashed, accumulated
	// atomically because shadow builds run on a background goroutine
	// (TrainResult.RowsRehashed surfaces it).
	rowsHashed int64
}

// newLayer builds an initialized layer. Weight initialization is He-style
// for ReLU layers and Xavier-style otherwise, from the network seed, drawn
// neuron by neuron whatever the orientation.
func newLayer(idx, in int, cfg LayerConfig, ar *arena.Arena, seed uint64) (*Layer, error) {
	l := &Layer{idx: idx, in: in, out: cfg.Size, cfg: cfg, inputMajor: idx == 0 && !cfg.Sampled}
	rows, rowLen := l.out, l.in
	if l.inputMajor {
		rows, rowLen = l.in, l.out
		l.inputCols = kernels.NewArenaMirror(l.in, l.out, ar)
		l.w = make([][]float32, l.in)
		for i := range l.w {
			l.w[i] = l.inputCols.Col(int32(i))
		}
	} else {
		l.w = ar.AllocRows(rows, rowLen)
	}
	l.mW = ar.AllocRows(rows, rowLen)
	l.vW = ar.AllocRows(rows, rowLen)
	l.b = ar.AllocAligned(l.out)
	l.mB = ar.AllocAligned(l.out)
	l.vB = ar.AllocAligned(l.out)
	l.touched = make([]uint32, l.out)
	l.fold.cursor = make([]int32, max(rows, l.out))
	l.fold.bias = make([]float32, l.out)

	std := float32(math.Sqrt(2.0 / float64(in))) // He init for ReLU
	if cfg.Activation != ActReLU {
		std = float32(math.Sqrt(1.0 / float64(in)))
	}
	r := rng.NewStream(seed, uint64(idx)+0x1a7e4)
	for j := 0; j < l.out; j++ {
		for i := 0; i < l.in; i++ {
			*l.cell(l.w, j, i) = std * r.NormFloat32()
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
	}
	return l, nil
}

// cell returns neuron j's cell for input i of m — the weights or one of
// their Adam moments — in the layer's orientation.
func (l *Layer) cell(m [][]float32, j, i int) *float32 {
	if l.inputMajor {
		return &m[i][j]
	}
	return &m[j][i]
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
// layer the slice aliases live training state; on the input-major first
// layer (see Layer) it is a fresh copy, and writing to it changes nothing.
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

// setWeights stores a model file's weight block for the layer: out
// neuron-major rows of in weights, then out biases. The input-major layer
// fills one input row at a time, so the out block rows it reads from stay
// cache-resident.
func (l *Layer) setWeights(block []float32) {
	for r, row := range l.w {
		if !l.inputMajor {
			copy(row, block[r*l.in:(r+1)*l.in])
			continue
		}
		for j := range row {
			row[j] = block[j*l.in+r]
		}
	}
	copy(l.b, block[l.out*l.in:])
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
// chunk, block-hash the rows (lsh.Family.HashDenseRows) and insert the
// chunk into a detached generation-seeded shadow set, table-parallel.
// (3) Publish the shadow with one atomic handle store. Only step (1) has
// to run while training is quiesced; steps (2)-(3) are safe concurrently
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
// block kernel. A row's codes are a pure function of the row and every
// table receives ids in ascending order, so both sources build the same
// tables. Hashing parallelizes over neurons and insertion over tables,
// the two lock-free axes §3.1 identifies.
func (l *Layer) buildShadow(gen uint64, snap []float32, workers int) *hashtable.Table {
	shadow := l.tables.Load().Shadow(gen)
	nf := l.fam.NumFuncs()
	chunk := max(1, min(rebuildChunk, rebuildStageFloats/l.in))
	if len(l.codesBuf) < chunk*nf {
		l.codesBuf = make([]uint32, chunk*nf)
	}
	if snap == nil && l.stageBuf == nil {
		l.stageBuf = make([]float32, chunk*l.in)
	}
	codes, stage := l.codesBuf, l.stageBuf
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
		})
		shadow.InsertRows(uint32(base), n, codes, nf, workers)
	}
	atomic.AddInt64(&l.rowsHashed, int64(l.out))
	return shadow
}
