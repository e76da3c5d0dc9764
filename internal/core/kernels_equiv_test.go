package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/lsh"
	"repro/internal/sampling"
	"repro/internal/sparse"
)

// Kernel-equivalence property tests: every layer's kernel — the scatter
// on the input-major first layer, the gather everywhere else — must agree
// with a test-side per-active-neuron reference (b + Σ w·x, then the
// activation) across architectures, active fractions, full/dense modes and
// all three activations, within a 1e-5 relative bound (the kernels and
// softmax normalization reassociate sums). The backward pass must equal a
// dense replay of the same contributions bit for bit. The internal/kernels
// and internal/vecmath tests pin the kernels themselves; these tests pin
// the network-level routing.

// equivArchs lists network shapes covering every routing case: input-major
// first layers (scatter), sampled layers (gather over sparse active sets),
// dense-into-dense (gather over full input), a dense layer behind a sampled
// one (gather over a sparse active-set input), and all three activations.
func equivArchs() map[string]Config {
	sampledOut := func(classes int) LayerConfig {
		return LayerConfig{
			Size: classes, Activation: ActSoftmax,
			Sampled: true, Hash: lsh.KindSimhash, K: 4, L: 12,
			Strategy: sampling.KindVanilla, Beta: 48,
		}
	}
	return map[string]Config{
		// The paper architecture: input-major ReLU hidden, sampled softmax.
		"paper": {
			InputDim: 512, Seed: 5,
			Layers: []LayerConfig{{Size: 96, Activation: ActReLU}, sampledOut(256)},
		},
		// Fully dense: scatter on layer 0, full-input gather above.
		"dense": {
			InputDim: 256, Seed: 9,
			Layers: []LayerConfig{
				{Size: 64, Activation: ActLinear},
				{Size: 48, Activation: ActReLU},
				{Size: 32, Activation: ActSoftmax},
			},
		},
		// A sampled middle layer feeding a dense softmax, which gathers over
		// the sparse active-set input.
		"sampled-middle": {
			InputDim: 384, Seed: 13,
			Layers: []LayerConfig{
				{Size: 72, Activation: ActReLU},
				{
					Size: 160, Activation: ActReLU,
					Sampled: true, Hash: lsh.KindDWTA, K: 4, L: 10,
					Strategy: sampling.KindVanilla, Beta: 56,
				},
				{Size: 64, Activation: ActSoftmax},
			},
		},
	}
}

// equivInputs draws deterministic sparse inputs at several densities.
func equivInputs(dim int) []sparse.Vector {
	var xs []sparse.Vector
	for _, nnz := range []int{3, 25, dim / 3} {
		idx := make([]int32, 0, nnz)
		val := make([]float32, 0, nnz)
		for i := 0; i < nnz; i++ {
			idx = append(idx, int32((i*37+nnz)%dim))
			val = append(val, float32(i%7)/3-0.8)
		}
		xs = append(xs, sparse.Vector{Dim: dim, Idx: idx, Val: val})
	}
	return xs
}

func relDiff(a, b float32) float64 {
	fa, fb := float64(a), float64(b)
	scale := math.Max(1, math.Max(math.Abs(fa), math.Abs(fb)))
	return math.Abs(fa-fb) / scale
}

// refActivations is the reference forward for one layer: per active
// neuron, b + Σ w·x in float64 over the layer input, then the layer's
// activation (softmax over the active set).
func refActivations(l *Layer, ls *layerState, inIds []int32, inVals []float32, inFull bool) []float64 {
	out := make([]float64, len(ls.vals))
	for a := range out {
		j := a
		if !ls.full {
			j = int(ls.ids[a])
		}
		s := float64(l.b[j])
		if inFull {
			for i, x := range inVals {
				s += float64(*l.cell(l.w, j, i)) * float64(x)
			}
		} else {
			for t, i := range inIds {
				s += float64(*l.cell(l.w, j, int(i))) * float64(inVals[t])
			}
		}
		out[a] = s
	}
	switch l.cfg.Activation {
	case ActReLU:
		for a := range out {
			out[a] = math.Max(out[a], 0)
		}
	case ActSoftmax:
		peak, sum := math.Inf(-1), 0.0
		for _, v := range out {
			peak = math.Max(peak, v)
		}
		for a := range out {
			out[a] = math.Exp(out[a] - peak)
			sum += out[a]
		}
		for a := range out {
			out[a] /= sum
		}
	}
	return out
}

// TestKernelForwardEquivalence runs inputs of several densities through
// every architecture in every mode: each layer's activations must match
// the reference computed from that pass's own layer input within 1e-5.
func TestKernelForwardEquivalence(t *testing.T) {
	for name, cfg := range equivArchs() {
		for _, mode := range []forwardMode{modeTrain, modeEvalSampled, modeEvalFull} {
			t.Run(fmt.Sprintf("%s/mode%d", name, mode), func(t *testing.T) {
				labels := []int32{1, 5}
				n := mustNet(t, cfg)
				st := mustState(t, n, 77)
				for xi, x := range equivInputs(cfg.InputDim) {
					n.forwardElem(st, x, labels, mode)
					inIds, inVals, inFull := x.Idx, x.Val, false
					for li, l := range n.layers {
						ls := &st.layers[li]
						want := refActivations(l, ls, inIds, inVals, inFull)
						for a, wv := range want {
							if d := relDiff(ls.vals[a], float32(wv)); d > 1e-5 {
								t.Fatalf("input %d: layer %d position %d = %v, reference %v (rel %.2g)", xi, li, a, ls.vals[a], wv, d)
							}
						}
						inIds, inVals, inFull = ls.ids, ls.vals, ls.full
					}
				}
			})
		}
	}
}

// TestKernelBackwardEquivalence runs one element's forward+backward per
// input and requires the extracted delta to equal the dense reference
// replay of that element bit for bit, on every architecture — full-width
// and column-union rows, full and sampled active sets, dense and sparse
// layer inputs.
func TestKernelBackwardEquivalence(t *testing.T) {
	for name, cfg := range equivArchs() {
		t.Run(name, func(t *testing.T) {
			n := mustNet(t, cfg)
			st := mustState(t, n, 31)
			ref := newDenseGrad(n)
			labels := []int32{2, 9}
			for xi, x := range equivInputs(cfg.InputDim) {
				ref.addRecord(trainElem(n, st, 0, 0, 0, x, labels))
				got := n.ExtractDelta(nil, 1)
				if got.Cells() == 0 {
					t.Fatalf("input %d: empty delta", xi)
				}
				requireDeltasBitIdentical(t, deltaCells(n, got), ref.cells(), fmt.Sprintf("input %d", xi))
			}
		})
	}
}

// TestKernelFormCounters: every forward pass of the paper architecture,
// training and evaluation alike, counts one scatter (the input-major first
// layer) and one gather (the sampled output layer).
func TestKernelFormCounters(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Train(ds.Train, ds.Test, TrainConfig{BatchSize: 32, Iterations: 10, Seed: 5, EvalEvery: 0, EvalSamples: 64})
	if err != nil {
		t.Fatal(err)
	}
	if gather, scatter := res.KernelForwards["gather"], res.KernelForwards["scatter"]; gather == 0 || scatter != gather {
		t.Fatalf("want one scatter and one gather per forward pass: %v", res.KernelForwards)
	}
}

// TestFallbackActiveDenseBeta: the empty-retrieval fallback must fill
// Beta distinct ids promptly even when Beta approaches (or exceeds) the
// layer size — the regime where the old rejection-sampling loop
// degenerated into a coupon-collector scan.
func TestFallbackActiveDenseBeta(t *testing.T) {
	for _, beta := range []int{16, 100, 128, 500} {
		cfg := tinyConfig(128)
		cfg.Layers[1].Beta = beta
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := newElemState(n, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		ls := &st.layers[1]
		ls.reset(false, 0)
		n.fallbackActive(st, ls, 1)
		want := min(beta, 128)
		if len(ls.ids) != want {
			t.Fatalf("beta %d: fallback drew %d ids, want %d", beta, len(ls.ids), want)
		}
		if !slices.IsSorted(ls.ids) {
			t.Fatalf("beta %d: fallback ids not ascending: %v", beta, ls.ids)
		}
		seen := make(map[int32]bool, len(ls.ids))
		for _, id := range ls.ids {
			if id < 0 || id >= 128 {
				t.Fatalf("beta %d: id %d out of range", beta, id)
			}
			if seen[id] {
				t.Fatalf("beta %d: duplicate id %d", beta, id)
			}
			seen[id] = true
		}
		// Reproducibility under a fixed seed: the same state reseeded
		// re-draws the identical fallback set.
		first := append([]int32(nil), ls.ids...)
		st.reseed(42)
		ls.reset(false, 0)
		n.fallbackActive(st, ls, 1)
		second := append([]int32(nil), ls.ids...)
		st.reseed(42)
		ls.reset(false, 0)
		n.fallbackActive(st, ls, 1)
		for i := range second {
			if ls.ids[i] != second[i] {
				t.Fatalf("beta %d: fallback not reproducible under a fixed seed", beta)
			}
		}
		_ = first
	}
}
