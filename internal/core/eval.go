package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dataset"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// EvalResult reports precision metrics over an evaluation set.
type EvalResult struct {
	// P1 is precision@1: the fraction of examples whose top predicted
	// class is a true label (the "Accuracy" of the paper's figures).
	P1 float64
	// PAtK maps k to precision@k for each requested k.
	PAtK map[int]float64
	// N is the number of evaluated examples.
	N int
}

// parallelIndexed splits [0, n) into min(workers, n) contiguous, non-empty
// spans and calls f(w, lo, hi) with a unique worker index per span: span 0
// on the calling goroutine, each other span on a goroutine of its own. It
// returns when every span is done.
func parallelIndexed(workers, n int, f func(w, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			f(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w, lo, hi int) {
			defer wg.Done()
			f(w, lo, hi)
		}(w, w*n/workers, (w+1)*n/workers)
	}
	f(0, 0, n/workers)
	wg.Wait()
}

// Evaluate computes exact (full forward) precision@1 and precision@k for
// the requested ks (each at least 1) over up to samples examples of test
// (0 = all), parallelized across threads. Per-worker element states are
// checked out of the network's default predictor pool and returned
// afterwards, so repeated evaluations do not re-allocate inference state.
// Drawing the subset costs O(samples²) moves (rng.SampleKInto), small
// next to the samples full forward passes.
func (n *Network) Evaluate(test []dataset.Example, samples, threads int, ks ...int) (EvalResult, error) {
	defer runtime.KeepAlive(n) // the weights may view a mapped file (see mapping)
	maxK := 1
	for _, k := range ks {
		if k < 1 {
			return EvalResult{}, fmt.Errorf("core: precision@k needs k >= 1, got k = %d", k)
		}
		maxK = max(maxK, k)
	}
	if err := n.checkSplit("test", test); err != nil {
		return EvalResult{}, err
	}
	idx := evalSubset(test, orAll(samples, len(test)), n.cfg.Seed^0x0e7a1)
	res := EvalResult{N: len(idx), PAtK: make(map[int]float64, len(ks))}
	if len(idx) == 0 {
		return res, nil
	}
	if threads <= 0 {
		threads = defaultThreads()
	}
	if threads > len(idx) {
		threads = len(idx)
	}
	pred, err := n.defaultPredictor()
	if err != nil {
		return res, err
	}
	states, err := pred.acquireStates(threads, false)
	if err != nil {
		return res, err
	}
	defer pred.releaseStates(states, false)

	xs := exampleFeatures(test, idx)
	p1s := make([]float64, threads)
	pks := make([]map[int]float64, threads)
	parallelIndexed(threads, len(idx), func(w, lo, hi int) {
		pk := make(map[int]float64, len(ks))
		n.exactEach(context.Background(), states[w], xs[lo:hi], func(i int, vals []float32) {
			labels := test[idx[lo+i]].Labels
			top := sparse.TopK(vals, maxK)
			if len(top) > 0 && containsSortedLabel(labels, top[0]) {
				p1s[w]++
			}
			for _, kk := range ks {
				hits := 0
				for _, c := range top[:min(kk, len(top))] {
					if containsSortedLabel(labels, c) {
						hits++
					}
				}
				pk[kk] += float64(hits) / float64(kk)
			}
		})
		pks[w] = pk
	})
	var p1 float64
	for _, v := range p1s {
		p1 += v
	}
	res.P1 = p1 / float64(len(idx))
	for _, k := range ks {
		var s float64
		for _, pk := range pks {
			s += pk[k]
		}
		res.PAtK[k] = s / float64(len(idx))
	}
	return res, nil
}

// evalP1 is the training loop's periodic evaluation: exact forward P@1
// over a fixed index subset, reusing the provided per-worker states. It
// runs the batch-major exact pass Evaluate and exact prediction run, whose
// layers under the output run the training kernels — notably the scatter
// on the input-major first layer.
func (n *Network) evalP1(test []dataset.Example, idx []int, states []*elemState) float64 {
	if len(idx) == 0 {
		return 0
	}
	xs := exampleFeatures(test, idx)
	hits := make([]int64, len(states))
	parallelIndexed(len(states), len(idx), func(w, lo, hi int) {
		var h int64
		n.exactEach(context.Background(), states[w], xs[lo:hi], func(i int, vals []float32) {
			if containsSortedLabel(test[idx[lo+i]].Labels, int32(vecmath.ArgMax(vals))) {
				h++
			}
		})
		hits[w] += h
	})
	var total int64
	for _, h := range hits {
		total += h
	}
	return float64(total) / float64(len(idx))
}

// exampleFeatures lists the features of test[idx[0]], test[idx[1]], ...
func exampleFeatures(test []dataset.Example, idx []int) []sparse.Vector {
	xs := make([]sparse.Vector, len(idx))
	for i, j := range idx {
		xs[i] = test[j].Features
	}
	return xs
}

func orAll(samples, total int) int {
	if samples <= 0 {
		return total
	}
	return samples
}
