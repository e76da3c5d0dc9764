// Package sparse defines the sparse vector representation shared by the
// dataset loaders, LSH hash families and the SLIDE network.
//
// A Vector is a parallel (index, value) pair list over a fixed dimension.
// SLIDE's workloads (extreme classification) have input sparsity well under
// 0.1%, so everything upstream of the first layer operates on this type and
// never materializes dense inputs.
package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Vector is a sparse float32 vector of dimension Dim with non-zero entries
// at Idx (strictly increasing) holding values Val. len(Idx) == len(Val).
type Vector struct {
	Dim int
	Idx []int32
	Val []float32
}

// New returns a sparse vector over dim copying the given components.
// Indices are sorted and validated; duplicate indices are summed.
func New(dim int, idx []int32, val []float32) (Vector, error) {
	if len(idx) != len(val) {
		return Vector{}, fmt.Errorf("sparse: %d indices but %d values", len(idx), len(val))
	}
	v := Vector{Dim: dim, Idx: append([]int32(nil), idx...), Val: append([]float32(nil), val...)}
	if err := v.normalizeInPlace(); err != nil {
		return Vector{}, err
	}
	return v, nil
}

// View builds a Vector over the caller's idx/val storage without copying
// — the allocation-free entry point for serving hot paths that own the
// component buffers. The fast path (strictly ascending indices, all in
// range) touches nothing; inputs that need sorting, duplicate merging or
// range diagnostics fall back to the copying New. The returned vector
// aliases idx and val: the caller must not mutate them while the vector
// is in use.
func View(dim int, idx []int32, val []float32) (Vector, error) {
	if len(idx) != len(val) {
		return Vector{}, fmt.Errorf("sparse: %d indices but %d values", len(idx), len(val))
	}
	prev := int32(-1)
	for _, i := range idx {
		if i <= prev || int(i) >= dim {
			return New(dim, idx, val)
		}
		prev = i
	}
	return Vector{Dim: dim, Idx: idx, Val: val}, nil
}

// MustNew is New but panics on error; for tests and literals.
func MustNew(dim int, idx []int32, val []float32) Vector {
	v, err := New(dim, idx, val)
	if err != nil {
		panic(err)
	}
	return v
}

// FromDense returns the sparse form of the dense vector d, keeping entries
// with |d[i]| > 0.
func FromDense(d []float32) Vector {
	v := Vector{Dim: len(d)}
	for i, x := range d {
		if x != 0 {
			v.Idx = append(v.Idx, int32(i))
			v.Val = append(v.Val, x)
		}
	}
	return v
}

func (v *Vector) normalizeInPlace() error {
	if !sort.SliceIsSorted(v.Idx, func(a, b int) bool { return v.Idx[a] < v.Idx[b] }) {
		ord := make([]int, len(v.Idx))
		for i := range ord {
			ord[i] = i
		}
		sort.Slice(ord, func(a, b int) bool { return v.Idx[ord[a]] < v.Idx[ord[b]] })
		ni := make([]int32, len(v.Idx))
		nv := make([]float32, len(v.Val))
		for k, o := range ord {
			ni[k], nv[k] = v.Idx[o], v.Val[o]
		}
		v.Idx, v.Val = ni, nv
	}
	// Merge duplicates and validate the index range.
	out := 0
	for i := 0; i < len(v.Idx); i++ {
		if v.Idx[i] < 0 || int(v.Idx[i]) >= v.Dim {
			return fmt.Errorf("sparse: index %d out of range [0,%d)", v.Idx[i], v.Dim)
		}
		if out > 0 && v.Idx[i] == v.Idx[out-1] {
			v.Val[out-1] += v.Val[i]
			continue
		}
		v.Idx[out], v.Val[out] = v.Idx[i], v.Val[i]
		out++
	}
	v.Idx, v.Val = v.Idx[:out], v.Val[:out]
	return nil
}

// NNZ returns the number of stored non-zero components.
func (v Vector) NNZ() int { return len(v.Idx) }

// Sparsity returns NNZ/Dim, the fraction of non-zero components.
func (v Vector) Sparsity() float64 {
	if v.Dim == 0 {
		return 0
	}
	return float64(v.NNZ()) / float64(v.Dim)
}

// Dense materializes the vector as a dense slice of length Dim.
func (v Vector) Dense() []float32 {
	d := make([]float32, v.Dim)
	for j, i := range v.Idx {
		d[i] = v.Val[j]
	}
	return d
}

// Dot returns the inner product with a dense vector w of length >= Dim.
func (v Vector) Dot(w []float32) float32 {
	var s float32
	for j, i := range v.Idx {
		s += v.Val[j] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v.Val {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	return Vector{
		Dim: v.Dim,
		Idx: append([]int32(nil), v.Idx...),
		Val: append([]float32(nil), v.Val...),
	}
}

// TopK returns the indices of the k largest values in the dense vector d
// (by value, ties broken by lower index), in descending value order.
// If k >= len(d) all indices are returned.
func TopK(d []float32, k int) []int32 {
	var s Selector
	return s.TopKInto(nil, d, k)
}

// Selector reuses the bounded-heap scratch across top-k selections so a
// steady-state caller (a pooled predictor worker state, a serving
// workspace) performs zero allocations per selection. The zero value is
// ready to use; a Selector must not be used concurrently.
type Selector struct{ h []heapItem }

// TopKInto is TopK appending into out (reusing its capacity): the k
// largest values' indices, descending by value with ties broken by lower
// index. The heap scratch lives in the Selector, so once out's capacity
// covers k the selection allocates nothing.
func (s *Selector) TopKInto(out []int32, d []float32, k int) []int32 {
	out = out[:0]
	if k <= 0 {
		return out
	}
	if k > len(d) {
		k = len(d)
	}
	// Bounded min-heap over (value, index); O(n log k) as the paper's
	// priority-queue implementation (App. A).
	if cap(s.h) < k {
		s.h = make([]heapItem, 0, k)
	}
	h := s.h[:0]
	for i, v := range d {
		if len(h) < k {
			h = append(h, heapItem{v, int32(i)})
			siftUp(h, len(h)-1)
			continue
		}
		if less(heapItem{v, int32(i)}, h[0]) {
			continue
		}
		h[0] = heapItem{v, int32(i)}
		siftDown(h, 0)
	}
	s.h = h
	slices.SortFunc(h, descending)
	for _, it := range h {
		out = append(out, it.idx)
	}
	return out
}

// descending orders heap items for the final result: larger values (and,
// on ties, lower indices) first — the same total order TopK has always
// produced, every (value, index) pair being distinct.
func descending(a, b heapItem) int {
	if less(b, a) {
		return -1
	}
	if less(a, b) {
		return 1
	}
	return 0
}

type heapItem struct {
	val float32
	idx int32
}

// less orders items ascending by value, descending by index, so the heap
// root is the weakest candidate and low indices win ties.
func less(a, b heapItem) bool {
	if a.val != b.val {
		return a.val < b.val
	}
	return a.idx > b.idx
}

func siftUp(h []heapItem, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []heapItem, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && less(h[l], h[m]) {
			m = l
		}
		if r < len(h) && less(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
