package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/vecmath"
)

// DeltaCompression selects the representation of the SparseDelta a
// data-parallel replica ships each batch ("Distributed SLIDE"'s
// low-bandwidth direction: the sparse gradient is already small, make it
// smaller). The zero value is the exact float32 payload.
type DeltaCompression int

const (
	// CompressFP32 ships exact float32 values — the original wire format.
	CompressFP32 DeltaCompression = iota
	// CompressBF16 rounds every gradient value and bias to bfloat16 on
	// the wire, halving value bytes at ≤2⁻⁸ relative rounding per cell.
	// The exchanger rounds its merged delta the same way, so replicas
	// stay bit-identical whether the transport is in-process or TCP.
	CompressBF16
	// CompressTopK ships only the largest-|g| gradient cells of each
	// layer, k = ceil(TrainConfig.TopKFrac x the batch delta's cells).
	// Dropped cells accumulate in a per-replica error-feedback residual
	// that competes in the selection again whenever its cell is next
	// touched, so gradient mass is delayed, never lost. Biases always
	// ship.
	CompressTopK
)

// String returns the flag spelling of the compression mode (without the
// topk fraction, which lives in TrainConfig.TopKFrac).
func (c DeltaCompression) String() string {
	switch c {
	case CompressFP32:
		return "fp32"
	case CompressBF16:
		return "bf16"
	case CompressTopK:
		return "topk"
	default:
		return fmt.Sprintf("DeltaCompression(%d)", int(c))
	}
}

// ParseCompression parses a -compress flag value: "fp32", "bf16" or
// "topk:<frac>" with frac in (0, 1]. The returned fraction is zero for
// the non-topk modes.
func ParseCompression(s string) (DeltaCompression, float64, error) {
	switch {
	case s == "" || s == "fp32":
		return CompressFP32, 0, nil
	case s == "bf16":
		return CompressBF16, 0, nil
	case strings.HasPrefix(s, "topk:"):
		frac, err := strconv.ParseFloat(strings.TrimPrefix(s, "topk:"), 64)
		if err != nil || !(frac > 0 && frac <= 1) {
			return 0, 0, fmt.Errorf("core: topk fraction must be in (0, 1], got %q", s)
		}
		return CompressTopK, frac, nil
	default:
		return 0, 0, fmt.Errorf("core: unknown compression %q (want fp32, bf16 or topk:<frac>)", s)
	}
}

// efLayer is one layer's error-feedback residual: the dropped gradient
// mass per storage row, as a dense row-wide accumulator allocated on first
// touch. Dense rows make the per-batch fold a plain add over the batch's
// cells. The memory ceiling is one extra weight-sized array in the worst
// case.
type efLayer struct {
	rows [][]float32
}

// compressTopK is the error-feedback top-k step: fold the fresh batch
// delta into the residual accumulator, ship the k largest-|g| cells of
// each layer among the cells this batch touched, and leave the rest
// accumulating. Two deliberate scoping choices keep the whole step
// O(batch cells), preserving SLIDE's sublinearity:
//
//   - k is sized from the FRESH batch delta: were it a fraction of
//     batch+residual, the residual would grow until frac x folded matched
//     the batch's own cell count — shipping as many cells as an
//     uncompressed run and erasing the wire savings.
//   - Selection competes only over the batch's touched cells, not the
//     full accumulator: an exact global top-k rescans the residual's
//     working set — which grows toward the layer's entire touched-weight
//     union — every batch, and the dist-train bench showed that scan
//     dominating the whole training step. Parked mass instead flushes
//     when the optimizer next touches its cell, which for SLIDE's
//     recurring active sets is the common case; mass on a never-revisited
//     cell stays parked, exactly as a below-threshold cell would under
//     global competition.
//
// The returned delta lives in network-owned scratch reused next batch.
func (n *Network) compressTopK(d *SparseDelta, frac float64) *SparseDelta {
	if n.efShip == nil {
		n.efShip = &SparseDelta{}
		n.efRes = make([]efLayer, len(d.Layers))
	}
	ship := n.efShip
	ship.reset(len(d.Layers))
	for li := range d.Layers {
		k := int(math.Ceil(frac * float64(vecmath.CountNonZero(d.Layers[li].Vals))))
		rows, width := n.layers[li].StorageShape()
		n.efAbs = topKSelectLayer(&d.Layers[li], &n.efRes[li], rows, width, k, &ship.Layers[li], n.efAbs)
	}
	return ship
}

// residualCells reports the error-feedback residual's current cell count
// (zero when top-k compression is off or the fraction is 1.0, where
// selection keeps everything).
func (n *Network) residualCells() int64 {
	var total int64
	for li := range n.efRes {
		for _, row := range n.efRes[li].rows {
			total += int64(vecmath.CountNonZero(row))
		}
	}
	return total
}

// residualDelta materializes the residual as a SparseDelta of full-width
// rows (bias gradients never residualize — they always ship).
// Test/diagnostic use; the hot path never builds this.
func (n *Network) residualDelta() *SparseDelta {
	out := &SparseDelta{Layers: make([]LayerDelta, len(n.efRes))}
	for li := range n.efRes {
		ld := &out.Layers[li]
		for r, row := range n.efRes[li].rows {
			if vecmath.CountNonZero(row) > 0 {
				ld.Rows = append(ld.Rows, int32(r))
				ld.Vals = append(ld.Vals, row...)
			}
		}
	}
	return out
}

// topKSelectLayer folds src (one layer's fresh batch delta) into res and
// emits the k largest accumulated-|v| cells among src's nonzero cells into
// ship, over src's rows and column set, zeroing them in the accumulator; a
// row ships if it kept any cell, with zeros in the cells it did not keep.
// Biases always ship. The threshold is the k-th largest |v|, an order
// statistic, so the kept set is deterministic; ties at the threshold are
// kept in row-major scan order until the quota is exact. Exact-zero
// accumulated cells (cancellation) carry no gradient mass and are never
// shipped. rows and width are the layer's storage shape. Cost is O(batch
// cells) — the accumulator is only ever read at the batch's own
// coordinates.
func topKSelectLayer(src *LayerDelta, res *efLayer, rows, width, k int, ship *LayerDelta, abs []float32) []float32 {
	ship.reset()
	if res.rows == nil {
		res.rows = make([][]float32, rows)
	}
	w := src.width()
	col := func(u int) int {
		if src.Cols != nil {
			return int(src.Cols[u])
		}
		return u
	}
	// Fold the batch into the accumulator and gather the |v| of every
	// touched cell in one pass. A touched cell whose accumulated value is
	// zero does not compete; one whose fresh gradient is zero was not
	// touched this batch.
	abs = abs[:0]
	for ri, r := range src.Rows {
		row := res.rows[r]
		if row == nil {
			row = make([]float32, width)
			res.rows[r] = row
		}
		for u, g := range src.Vals[ri*w : (ri+1)*w] {
			if g == 0 {
				continue
			}
			c := col(u)
			row[c] += g
			if v := row[c]; v != 0 {
				abs = append(abs, abs32(v))
			}
		}
	}
	nnz := len(abs)
	thr := float32(-1) // below every |v|: keep all non-zero cells
	quota := 0
	if k < nnz {
		thr = kthLargest(abs, k)
		quota = k
		for _, a := range abs {
			if a > thr {
				quota--
			}
		}
	}
	if src.Cols != nil {
		ship.Cols = append(ship.Cols, src.Cols...)
	} else {
		ship.Cols = nil
	}
	for ri, r := range src.Rows {
		row := res.rows[r]
		n := len(ship.Vals)
		ship.Vals = slices.Grow(ship.Vals, w)[:n+w]
		out := ship.Vals[n:]
		clear(out)
		kept := false
		for u, g := range src.Vals[ri*w : (ri+1)*w] {
			if g == 0 {
				continue
			}
			c := col(u)
			v := row[c]
			if v == 0 {
				continue
			}
			a := abs32(v)
			keep := a > thr
			if !keep && a == thr && quota > 0 {
				keep = true
				quota--
			}
			if keep {
				out[u] = v
				row[c] = 0
				kept = true
			}
		}
		if kept {
			ship.Rows = append(ship.Rows, r)
		} else {
			ship.Vals = ship.Vals[:n]
		}
	}
	ship.Neurons = append(ship.Neurons, src.Neurons...)
	ship.Bias = append(ship.Bias, src.Bias...)
	return abs
}

func abs32(x float32) float32 {
	return math.Float32frombits(math.Float32bits(x) &^ (1 << 31))
}

// kthLargest returns the k-th largest element of a (1-based), partially
// reordering it. Three-way quickselect so large runs of equal magnitudes
// — common in gradients — resolve in one partition instead of
// degenerating quadratic.
func kthLargest(a []float32, k int) float32 {
	lo, hi, idx := 0, len(a)-1, k-1
	for lo < hi {
		lt, gt := partitionDesc3(a, lo, hi)
		switch {
		case idx < lt:
			hi = lt - 1
		case idx > gt:
			lo = gt + 1
		default:
			return a[idx]
		}
	}
	return a[lo]
}

// partitionDesc3 partitions a[lo..hi] descending around a median-of-three
// pivot value p, returning [lt, gt] such that a[lo..lt-1] > p,
// a[lt..gt] == p and a[gt+1..hi] < p.
func partitionDesc3(a []float32, lo, hi int) (int, int) {
	p := median3(a[lo], a[lo+(hi-lo)/2], a[hi])
	i, lt, gt := lo, lo, hi
	for i <= gt {
		switch {
		case a[i] > p:
			a[i], a[lt] = a[lt], a[i]
			lt++
			i++
		case a[i] < p:
			a[i], a[gt] = a[gt], a[i]
			gt--
		default:
			i++
		}
	}
	return lt, gt
}

func median3(x, y, z float32) float32 {
	if x > y {
		x, y = y, x
	}
	if y > z {
		y = z
	}
	if x > y {
		y = x
	}
	return y
}
