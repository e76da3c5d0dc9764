package core

import (
	"fmt"

	"repro/internal/hashtable"
	"repro/internal/lsh"
)

// Incremental Simhash re-hashing (§4.2, design trick 3): hsign(w) =
// sign(proj·w), and backpropagation only changes the weights connecting
// active neurons, so the projection values can be maintained with O(d')
// additions per rebuild instead of a full O(d) re-projection per
// function.
//
// The memo stores NumFuncs float32 projections per neuron plus a snapshot
// of each neuron's weight row at the last re-hash; on rebuild, only rows
// whose weights changed are diffed sparsely and their projections
// updated. This trades memory (one extra weight copy plus K*L floats per
// neuron) for hashing time — exactly the trade the paper describes — so
// it is opt-in via EnableIncrementalRehash.

// rehashMemo holds the incremental state for one layer.
type rehashMemo struct {
	sh *lsh.IncrementalSimhash
	// proj[j*nf : (j+1)*nf] are neuron j's memoized projections.
	proj []float32
	// snapshot[j] is neuron j's weight row at the last re-hash.
	snapshot [][]float32
	// deltaIdx/deltaVal are reusable sparse-diff scratch.
	deltaIdx []int32
	deltaVal []float32
}

// EnableIncrementalRehash switches layer li to incremental Simhash
// re-hashing. The layer must be sampled with lsh.KindSimhash. Subsequent
// rebuilds compute codes from memoized projections updated by sparse
// weight diffs.
func (n *Network) EnableIncrementalRehash(li int) error {
	l := n.layers[li]
	if !l.Sampled() {
		return errNotSampled(li)
	}
	sh, ok := l.fam.(*lsh.IncrementalSimhash)
	if !ok {
		return errNotSimhash(li)
	}
	nf := l.fam.NumFuncs()
	memo := &rehashMemo{
		sh:       sh,
		proj:     make([]float32, l.out*nf),
		snapshot: make([][]float32, l.out),
	}
	for j := 0; j < l.out; j++ {
		memo.snapshot[j] = append([]float32(nil), l.w[j]...)
		sh.ProjectAll(l.w[j], memo.proj[j*nf:(j+1)*nf])
	}
	l.memo = memo
	return nil
}

// diffIncremental is the memo layer's synchronous rebuild phase: it
// sparse-diffs each drifted weight row against its snapshot and folds
// the deltas into the memoized projections, parallel over neurons
// (private rows). When the layer tracks dirty rows the scan covers only
// those — safe because dirty is a superset of changed (every weight
// write stamps its row) — and falls back to all rows otherwise
// (Config.FullRebuild networks). It must run at a batch boundary
// (weights quiesced); afterwards the projections are read-only until the
// rebuild publishes, so the insert phase may run on a background
// goroutine.
func (l *Layer) diffIncremental(workers int) {
	memo := l.memo
	nf := l.fam.NumFuncs()
	var dirty []int32
	n := l.out
	if l.dirty != nil {
		dirty = l.collectDirtyRows(workers)
		n = len(dirty)
	}
	parallelIndexed(workers, n, func(w, lo, hi int) {
		var dIdx []int32
		var dVal []float32
		for k := lo; k < hi; k++ {
			j := k
			if dirty != nil {
				j = int(dirty[k])
			}
			row, snap := l.w[j], memo.snapshot[j]
			dIdx = dIdx[:0]
			dVal = dVal[:0]
			for i := range row {
				if row[i] != snap[i] {
					dIdx = append(dIdx, int32(i))
					dVal = append(dVal, row[i]-snap[i])
					snap[i] = row[i]
				}
			}
			if len(dIdx) > 0 {
				memo.sh.ProjectDelta(memo.proj[j*nf:(j+1)*nf], dIdx, dVal)
			}
		}
	})
}

// insertFromMemo derives every neuron's codes from the (quiesced)
// memoized projections and inserts them into dst, parallel over tables
// (as in the standard rebuild). It reads no live training state.
func (l *Layer) insertFromMemo(dst *hashtable.Table, workers int) {
	memo := l.memo
	nf := l.fam.NumFuncs()
	codes := l.codesScratch(nf)
	for base := 0; base < l.out; base += rebuildChunk {
		nRows := min(rebuildChunk, l.out-base)
		parallelIndexed(workers, nRows, func(_, lo, hi int) {
			for r := lo; r < hi; r++ {
				j := base + r
				memo.sh.CodesFromProjections(memo.proj[j*nf:(j+1)*nf], codes[r*nf:(r+1)*nf])
			}
		})
		insertChunk(dst, uint32(base), nRows, nf, codes, workers)
	}
}

func errNotSampled(li int) error {
	return fmt.Errorf("core: layer %d is not LSH-sampled", li)
}

func errNotSimhash(li int) error {
	return fmt.Errorf("core: incremental re-hash requires Simhash on layer %d", li)
}
