package dense

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// TrainConfig mirrors the SLIDE trainer's knobs so experiments drive both
// systems identically.
type TrainConfig struct {
	BatchSize   int
	Iterations  int64
	Epochs      int
	Threads     int
	EvalEvery   int64
	EvalSamples int
	TargetAcc   float64
	MaxSeconds  float64
	Seed        uint64
	OnEval      func(metrics.Point)
}

// validate rejects negative sizes, which would otherwise panic or train
// nothing and report success.
func (tc TrainConfig) validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"BatchSize", int64(tc.BatchSize)},
		{"Iterations", tc.Iterations},
		{"Epochs", int64(tc.Epochs)},
		{"Threads", int64(tc.Threads)},
	} {
		if f.v < 0 {
			return fmt.Errorf("dense: TrainConfig.%s must not be negative, got %d", f.name, f.v)
		}
	}
	return nil
}

func (tc TrainConfig) withDefaults(trainSize int) TrainConfig {
	if tc.BatchSize == 0 {
		tc.BatchSize = 128
	}
	if tc.Threads == 0 {
		tc.Threads = defaultThreads()
	}
	if tc.Iterations == 0 {
		epochs := tc.Epochs
		if epochs == 0 {
			epochs = 1
		}
		perEpoch := (trainSize + tc.BatchSize - 1) / tc.BatchSize
		tc.Iterations = int64(epochs) * int64(perEpoch)
	}
	return tc
}

// TrainResult summarizes a dense training run.
type TrainResult struct {
	Curve       metrics.Curve
	Iterations  int64
	Seconds     float64
	FinalAcc    float64
	Utilization float64
}

// trainBuffers holds the batch-level activation and delta matrices.
type trainBuffers struct {
	acts   [][]float32 // acts[li]: batch*size, row per element
	deltas [][]float32
	grads  [][]float32 // per-worker gradient row scratch (max fan-in)
}

func newTrainBuffers(n *Network, batch, threads int) *trainBuffers {
	tb := &trainBuffers{}
	maxIn := n.cfg.InputDim
	for _, l := range n.layers {
		tb.acts = append(tb.acts, make([]float32, batch*l.out))
		tb.deltas = append(tb.deltas, make([]float32, batch*l.out))
		if l.in > maxIn {
			maxIn = l.in
		}
	}
	tb.grads = make([][]float32, threads)
	for w := range tb.grads {
		tb.grads[w] = make([]float32, maxIn)
	}
	return tb
}

// Train runs full-computation minibatch training. Every phase (forward,
// delta propagation, per-neuron gradient accumulation + Adam) is
// parallelized across threads, and every parameter is updated every
// iteration — the work profile of a dense framework.
func (n *Network) Train(train, test []dataset.Example, tc TrainConfig) (*TrainResult, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("dense: empty training split")
	}
	if err := tc.validate(); err != nil {
		return nil, err
	}
	tc = tc.withDefaults(len(train))
	if tc.BatchSize > len(train) {
		tc.BatchSize = len(train)
	}
	threads := tc.Threads
	tb := newTrainBuffers(n, tc.BatchSize, threads)

	order := rng.NewStream(tc.Seed, 0x0d3).Perm(len(train))
	evalIdx := evalSubset(test, tc.EvalSamples, tc.Seed)

	res := &TrainResult{Curve: metrics.Curve{Name: "p@1"}}
	var trainNS, busyNS int64
	pos := 0

	evalNow := func() float64 {
		p1 := n.evalP1(test, evalIdx, threads)
		pt := metrics.Point{Iter: n.step, Seconds: float64(trainNS) / 1e9, Value: p1}
		res.Curve.Add(pt)
		if tc.OnEval != nil {
			tc.OnEval(pt)
		}
		return p1
	}

	start := n.step
	for n.step-start < tc.Iterations {
		if pos+tc.BatchSize > len(order) {
			r := rng.NewStream(tc.Seed+uint64(n.step), 0x0d4)
			r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			pos = 0
		}
		batch := order[pos : pos+tc.BatchSize]
		pos += tc.BatchSize

		t0 := time.Now()
		busyNS += n.trainBatch(train, batch, tb, threads)
		n.step++
		trainNS += time.Since(t0).Nanoseconds()

		if tc.EvalEvery > 0 && (n.step-start)%tc.EvalEvery == 0 {
			p1 := evalNow()
			if tc.TargetAcc > 0 && p1 >= tc.TargetAcc {
				break
			}
		}
		if tc.MaxSeconds > 0 && float64(trainNS)/1e9 >= tc.MaxSeconds {
			break
		}
	}
	if last := res.Curve.Last(); last.Iter != n.step || len(res.Curve.Points) == 0 {
		evalNow()
	}

	res.Iterations = n.step - start
	res.Seconds = float64(trainNS) / 1e9
	res.FinalAcc = res.Curve.Last().Value
	if trainNS > 0 {
		res.Utilization = minF(1, float64(busyNS)/(float64(trainNS)*float64(threads)))
	}
	return res, nil
}

// trainBatch executes one iteration and returns summed worker busy
// nanoseconds for utilization accounting.
func (n *Network) trainBatch(train []dataset.Example, batch []int, tb *trainBuffers, threads int) int64 {
	last := len(n.layers) - 1
	busy := make([]int64, threads)

	// Phase 1+2: forward all layers and form the softmax cross-entropy
	// delta, parallel over batch elements.
	parallelIndexed(threads, len(batch), func(w, lo, hi int) {
		t0 := time.Now()
		for b := lo; b < hi; b++ {
			ex := &train[batch[b]]
			for li, l := range n.layers {
				out := tb.acts[li][b*l.out : (b+1)*l.out]
				if li == 0 {
					l.forwardSparse(ex.Features.Idx, ex.Features.Val, out)
				} else {
					prev := n.layers[li-1]
					l.forwardDense(tb.acts[li-1][b*prev.out:(b+1)*prev.out], out)
				}
			}
			l := n.layers[last]
			probs := tb.acts[last][b*l.out : (b+1)*l.out]
			vecmath.Softmax(probs)
			delta := tb.deltas[last][b*l.out : (b+1)*l.out]
			copy(delta, probs)
			if len(ex.Labels) > 0 {
				inv := 1 / float32(len(ex.Labels))
				for _, lab := range ex.Labels {
					delta[lab] -= inv
				}
			}
		}
		busy[w] += time.Since(t0).Nanoseconds()
	})

	// Phase 3: propagate deltas down, parallel over batch elements.
	for li := last; li >= 1; li-- {
		l := n.layers[li]
		prev := n.layers[li-1]
		parallelIndexed(threads, len(batch), func(w, lo, hi int) {
			t0 := time.Now()
			for b := lo; b < hi; b++ {
				dIn := tb.deltas[li-1][b*prev.out : (b+1)*prev.out]
				for i := range dIn {
					dIn[i] = 0
				}
				delta := tb.deltas[li][b*l.out : (b+1)*l.out]
				for j := 0; j < l.out; j++ {
					if dj := delta[j]; dj != 0 {
						vecmath.Axpy(dj, l.w[j], dIn)
					}
				}
				if prev.relu {
					acts := tb.acts[li-1][b*prev.out : (b+1)*prev.out]
					for i := range dIn {
						if acts[i] <= 0 {
							dIn[i] = 0
						}
					}
				}
			}
			busy[w] += time.Since(t0).Nanoseconds()
		})
	}

	// Phase 4: per-neuron gradient accumulation and full Adam update,
	// parallel over neurons within each layer.
	n.step++ // advance for bias correction, then restore (caller increments)
	alpha := n.adam.Alpha(n.step)
	n.step--
	invB := 1 / float32(len(batch))
	for li, l := range n.layers {
		parallelIndexed(threads, l.out, func(w, lo, hi int) {
			t0 := time.Now()
			gRow := tb.grads[w][:l.in]
			for j := lo; j < hi; j++ {
				for i := range gRow {
					gRow[i] = 0
				}
				var gBias float32
				for b := range batch {
					dj := tb.deltas[li][b*l.out+j] * invB
					if dj == 0 {
						continue
					}
					gBias += dj
					if li == 0 {
						ex := &train[batch[b]]
						vecmath.SparseAxpy(dj, ex.Features.Idx, ex.Features.Val, gRow)
					} else {
						prev := n.layers[li-1]
						vecmath.Axpy(dj, tb.acts[li-1][b*prev.out:(b+1)*prev.out], gRow)
					}
				}
				n.adam.StepRow(l.w[j], l.mW[j], l.vW[j], gRow, alpha)
				n.adam.Step1(&l.b[j], &l.mB[j], &l.vB[j], gBias, alpha)
			}
			busy[w] += time.Since(t0).Nanoseconds()
		})
	}

	var total int64
	for _, b := range busy {
		total += b
	}
	return total
}

// Predict runs a forward pass and returns the top-k classes and scores.
func (n *Network) Predict(x sparse.Vector, k int) ([]int32, []float32) {
	scratch := make([][]float32, len(n.layers))
	for li, l := range n.layers {
		scratch[li] = make([]float32, l.out)
	}
	n.forwardOne(x, scratch)
	logits := scratch[len(n.layers)-1]
	ids := sparse.TopK(logits, k)
	scores := make([]float32, len(ids))
	for i, id := range ids {
		scores[i] = logits[id]
	}
	return ids, scores
}

func (n *Network) forwardOne(x sparse.Vector, scratch [][]float32) {
	for li, l := range n.layers {
		if li == 0 {
			l.forwardSparse(x.Idx, x.Val, scratch[0])
		} else {
			l.forwardDense(scratch[li-1], scratch[li])
		}
	}
}

// Evaluate computes P@1 and P@k over up to samples test examples; a
// non-positive k is skipped and reads 0.
func (n *Network) Evaluate(test []dataset.Example, samples, threads int, ks ...int) EvalResult {
	if samples <= 0 {
		samples = len(test)
	}
	idx := evalSubset(test, samples, n.cfg.Seed^0x0e7a1)
	res := EvalResult{N: len(idx), PAtK: make(map[int]float64, len(ks))}
	if len(idx) == 0 {
		return res
	}
	if threads <= 0 {
		threads = defaultThreads()
	}
	maxK := 1
	for _, k := range ks {
		if k > maxK {
			maxK = k
		}
	}
	p1s := make([]float64, threads)
	pks := make([]map[int]float64, threads)
	parallelIndexed(threads, len(idx), func(w, lo, hi int) {
		scratch := make([][]float32, len(n.layers))
		for li, l := range n.layers {
			scratch[li] = make([]float32, l.out)
		}
		pk := make(map[int]float64, len(ks))
		for k := lo; k < hi; k++ {
			ex := &test[idx[k]]
			n.forwardOne(ex.Features, scratch)
			top := sparse.TopK(scratch[len(n.layers)-1], maxK)
			if len(top) > 0 && containsSorted(ex.Labels, top[0]) {
				p1s[w]++
			}
			for _, kk := range ks {
				if kk <= 0 {
					continue // no precision at a non-positive k
				}
				hits := 0
				for _, c := range top[:min(kk, len(top))] {
					if containsSorted(ex.Labels, c) {
						hits++
					}
				}
				pk[kk] += float64(hits) / float64(kk)
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
			if pk != nil {
				s += pk[k]
			}
		}
		res.PAtK[k] = s / float64(len(idx))
	}
	return res
}

// EvalResult reports precision metrics.
type EvalResult struct {
	P1   float64
	PAtK map[int]float64
	N    int
}

func (n *Network) evalP1(test []dataset.Example, idx []int, threads int) float64 {
	if len(idx) == 0 {
		return 0
	}
	hits := make([]int64, threads)
	parallelIndexed(threads, len(idx), func(w, lo, hi int) {
		scratch := make([][]float32, len(n.layers))
		for li, l := range n.layers {
			scratch[li] = make([]float32, l.out)
		}
		for k := lo; k < hi; k++ {
			ex := &test[idx[k]]
			n.forwardOne(ex.Features, scratch)
			logits := scratch[len(n.layers)-1]
			if containsSorted(ex.Labels, int32(vecmath.ArgMax(logits))) {
				hits[w]++
			}
		}
	})
	var total int64
	for _, h := range hits {
		total += h
	}
	return float64(total) / float64(len(idx))
}

func evalSubset(test []dataset.Example, samples int, seed uint64) []int {
	if len(test) == 0 {
		return nil
	}
	if samples <= 0 {
		samples = 1024
	}
	if samples >= len(test) {
		idx := make([]int, len(test))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	return rng.NewStream(seed, 0xe7a1).SampleK(len(test), samples)
}

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

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
