package core

import (
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

// parallelIndexed splits [0, n) into contiguous spans across workers and
// calls f(w, lo, hi) with a unique worker index per span.
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
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			f(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// Evaluate computes exact (full forward) precision@1 and precision@k for
// the requested ks over up to samples examples of test (0 = all),
// parallelized across threads. Per-worker element states are checked out
// of the network's default predictor pool and returned afterwards, so
// repeated evaluations do not re-allocate inference state.
func (n *Network) Evaluate(test []dataset.Example, samples, threads int, ks ...int) (EvalResult, error) {
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
	maxK := 1
	for _, k := range ks {
		if k > maxK {
			maxK = k
		}
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

	p1s := make([]float64, threads)
	pks := make([]map[int]float64, threads)
	parallelIndexed(threads, len(idx), func(w, lo, hi int) {
		st := states[w]
		pk := make(map[int]float64, len(ks))
		for k := lo; k < hi; k++ {
			ex := &test[idx[k]]
			n.forwardElem(st, ex.Features, nil, modeEvalFull)
			out := &st.layers[len(st.layers)-1]
			top := sparse.TopK(out.vals, maxK)
			if len(top) > 0 && containsSortedLabel(ex.Labels, top[0]) {
				p1s[w]++
			}
			for _, kk := range ks {
				hits := 0
				for _, c := range top[:min(kk, len(top))] {
					if containsSortedLabel(ex.Labels, c) {
						hits++
					}
				}
				pk[kk] += float64(hits) / float64(max(kk, 1))
			}
		}
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
// over a fixed index subset, reusing the provided per-worker states. The
// exact pass runs the same kernels as training — notably the scatter on
// the input-major first layer — so periodic evaluation shares the hot
// path's layout wins.
func (n *Network) evalP1(test []dataset.Example, idx []int, states []*elemState) float64 {
	if len(idx) == 0 {
		return 0
	}
	hits := make([]int64, len(states))
	parallelIndexed(len(states), len(idx), func(w, lo, hi int) {
		st := states[w]
		var h int64
		for k := lo; k < hi; k++ {
			ex := &test[idx[k]]
			n.forwardElem(st, ex.Features, nil, modeEvalFull)
			out := &st.layers[len(st.layers)-1]
			if containsSortedLabel(ex.Labels, int32(vecmath.ArgMax(out.vals))) {
				h++
			}
		}
		hits[w] += h
	})
	var total int64
	for _, h := range hits {
		total += h
	}
	return float64(total) / float64(len(idx))
}

func orAll(samples, total int) int {
	if samples <= 0 {
		return total
	}
	return samples
}
