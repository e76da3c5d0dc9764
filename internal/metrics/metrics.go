// Package metrics provides the evaluation measures and curve recording of
// training runs: precision@k (the "accuracy" reported in the paper's
// figures is P@1) and accuracy-vs-time curves with the time at which a
// curve first reaches a target.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// PrecisionAt1 reports whether the highest-scoring class is a true label.
// ids maps score positions to class ids; a nil ids means scores[i] scores
// class i. labels must be sorted ascending.
func PrecisionAt1(scores []float32, ids []int32, labels []int32) float64 {
	if len(scores) == 0 || len(labels) == 0 {
		return 0
	}
	best, bi := scores[0], 0
	for i, s := range scores[1:] {
		if s > best {
			best, bi = s, i+1
		}
	}
	cls := int32(bi)
	if ids != nil {
		cls = ids[bi]
	}
	if containsSorted(labels, cls) {
		return 1
	}
	return 0
}

// PrecisionAtK returns |top-k predictions ∩ labels| / k. ids maps score
// positions to class ids; nil means identity. labels must be sorted.
func PrecisionAtK(scores []float32, ids []int32, labels []int32, k int) float64 {
	if k <= 0 || len(scores) == 0 || len(labels) == 0 {
		return 0
	}
	if k > len(scores) {
		k = len(scores)
	}
	ord := make([]int, len(scores))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		if scores[ord[a]] != scores[ord[b]] {
			return scores[ord[a]] > scores[ord[b]]
		}
		return ord[a] < ord[b]
	})
	hits := 0
	for _, i := range ord[:k] {
		cls := int32(i)
		if ids != nil {
			cls = ids[i]
		}
		if containsSorted(labels, cls) {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

func containsSorted(labels []int32, c int32) bool {
	lo, hi := 0, len(labels)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case labels[mid] < c:
			lo = mid + 1
		case labels[mid] > c:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// Point is one evaluation of a training run.
type Point struct {
	Iter    int64   // training iterations (batches) completed
	Seconds float64 // wall-clock (or simulated) training seconds elapsed
	Value   float64 // metric value (e.g. P@1)
	Loss    float64 // mean training loss since the previous point, if known
}

// Curve is a named metric trajectory.
type Curve struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (c *Curve) Add(p Point) { c.Points = append(c.Points, p) }

// Last returns the final point, or a zero Point if empty.
func (c *Curve) Last() Point {
	if len(c.Points) == 0 {
		return Point{}
	}
	return c.Points[len(c.Points)-1]
}

// Best returns the maximum metric value seen, or 0 if empty.
func (c *Curve) Best() float64 {
	best := 0.0
	for _, p := range c.Points {
		if p.Value > best {
			best = p.Value
		}
	}
	return best
}

// TimeToValue returns the earliest recorded time at which the curve
// reached target, and whether it ever did.
func (c *Curve) TimeToValue(target float64) (float64, bool) {
	for _, p := range c.Points {
		if p.Value >= target {
			return p.Seconds, true
		}
	}
	return math.Inf(1), false
}

// String renders a compact single-line summary.
func (c *Curve) String() string {
	last := c.Last()
	return fmt.Sprintf("%s: %d points, last iter=%d t=%.1fs value=%.4f", c.Name, len(c.Points), last.Iter, last.Seconds, last.Value)
}
