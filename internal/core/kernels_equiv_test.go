package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/sampling"
	"repro/internal/sparse"
)

// Kernel-equivalence property tests: the density-adaptive engine's gather
// and scatter forms, and the form the plan picks, must agree with a
// test-side per-active-neuron reference (b + Σ w·x, then the activation)
// across architectures, active fractions, full/dense modes and all three
// activations, within a 1e-5 relative bound (the forms and softmax
// normalization reassociate sums). The backward pass must equal a dense
// replay of the same contributions bit for bit. The internal/kernels and
// internal/vecmath tests pin the kernels themselves; these tests pin the
// network-level routing.

// equivArchs lists network shapes covering every routing case: mirrored
// first layers (scatter-eligible), sampled layers (gather over sparse
// active sets), dense-into-dense (gather over full input), post-sampled
// mirrored layers, and all three activations.
func equivArchs() map[string]Config {
	sampledOut := func(classes int) LayerConfig {
		return LayerConfig{
			Size: classes, Activation: ActSoftmax,
			Sampled: true, Hash: lsh.KindSimhash, K: 4, L: 12,
			Strategy: sampling.KindVanilla, Beta: 48,
		}
	}
	return map[string]Config{
		// The paper architecture: mirrored ReLU hidden, sampled softmax.
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
		// A sampled middle layer feeding a mirrored dense softmax: the
		// post-sampled layer sees sparse active-set input, so the scatter
		// form runs on the output layer too.
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
				s += float64(l.w[j][i]) * float64(x)
			}
		} else {
			for t, i := range inIds {
				s += float64(l.w[j][i]) * float64(inVals[t])
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

// activeIds returns a layer's active set in ascending order.
func activeIds(ls *layerState) []int32 {
	if ls.full {
		ids := make([]int32, len(ls.vals))
		for j := range ids {
			ids[j] = int32(j)
		}
		return ids
	}
	return slices.Sorted(slices.Values(ls.ids))
}

// TestKernelForwardEquivalence runs identical inputs through the network
// with the form pinned to gather (crossover 0), pinned to scatter
// (crossover 2) and planned (the calibrated crossover). Every layer's
// activations must match the reference computed from that run's own layer
// input within 1e-5, and the three runs must select identical active sets.
func TestKernelForwardEquivalence(t *testing.T) {
	forms := []struct {
		name      string
		crossover float64
	}{{"gather", 0}, {"scatter", 2}, {"planned", kernels.CalibratedCrossover()}}
	for name, cfg := range equivArchs() {
		for _, mode := range []forwardMode{modeTrain, modeEvalSampled, modeEvalFull} {
			t.Run(fmt.Sprintf("%s/mode%d", name, mode), func(t *testing.T) {
				labels := []int32{1, 5}
				for xi, x := range equivInputs(cfg.InputDim) {
					var firstActive [][]int32
					for _, f := range forms {
						n := mustNet(t, cfg)
						n.crossover = f.crossover
						st := mustState(t, n, 77)
						n.forwardElem(st, x, labels, mode)
						inIds, inVals, inFull := x.Idx, x.Val, false
						for li, l := range n.layers {
							ls := &st.layers[li]
							want := refActivations(l, ls, inIds, inVals, inFull)
							for a, wv := range want {
								if d := relDiff(ls.vals[a], float32(wv)); d > 1e-5 {
									t.Fatalf("input %d, %s: layer %d position %d = %v, reference %v (rel %.2g)", xi, f.name, li, a, ls.vals[a], wv, d)
								}
							}
							inIds, inVals, inFull = ls.ids, ls.vals, ls.full
						}
						var active [][]int32
						for li := range st.layers {
							active = append(active, activeIds(&st.layers[li]))
						}
						if firstActive == nil {
							firstActive = active
						} else if !reflect.DeepEqual(active, firstActive) {
							t.Fatalf("input %d: %s selected different active sets than %s", xi, f.name, forms[0].name)
						}
					}
				}
			})
		}
	}
}

// TestKernelBackwardEquivalence runs one element's forward+backward per
// input and requires the extracted delta to equal the dense reference
// replay of that element bit for bit, on every architecture — dense and
// sparse shard rows, full and sampled active sets, dense and sparse layer
// inputs.
func TestKernelBackwardEquivalence(t *testing.T) {
	for name, cfg := range equivArchs() {
		t.Run(name, func(t *testing.T) {
			n := mustNet(t, cfg)
			st := mustState(t, n, 31)
			ref := newDenseGrad(n)
			labels := []int32{2, 9}
			for xi, x := range equivInputs(cfg.InputDim) {
				n.beginBatch()
				n.forwardElem(st, x, labels, modeTrain)
				n.backwardElem(st, x, labels, nil)
				ref.addElem(st, x)
				got := n.ExtractDelta(nil, 1)
				if got.Cells() == 0 {
					t.Fatalf("input %d: empty delta", xi)
				}
				requireDeltasBitIdentical(t, got, ref.delta(), fmt.Sprintf("input %d", xi))
			}
		})
	}
}

// requireMirrorsCoherent checks every mirrored layer's column-major copy
// cell-for-cell against the row-major weights.
func requireMirrorsCoherent(t *testing.T, n *Network, when string) {
	t.Helper()
	mirrored := 0
	for li, l := range n.layers {
		if l.mirror == nil {
			continue
		}
		mirrored++
		for i := 0; i < l.in; i++ {
			col := l.mirror.Col(int32(i))
			for j := 0; j < l.out; j++ {
				if col[j] != l.w[j][i] {
					t.Fatalf("%s: layer %d mirror[%d][%d] = %v, weights = %v", when, li, i, j, col[j], l.w[j][i])
				}
			}
		}
	}
	if mirrored == 0 {
		t.Fatalf("%s: no mirrored layers to check", when)
	}
}

// TestMirrorCoherence: training Adam steps dual-write the mirror, and
// model save/load re-derives it — the scatter form must always stream
// weights identical to the rows.
func TestMirrorCoherence(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	cfg := tinyConfig(classes)
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireMirrorsCoherent(t, n, "after init")
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{BatchSize: 32, Iterations: 30, Seed: 5, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	requireMirrorsCoherent(t, n, "after training")

	var buf bytes.Buffer
	if err := n.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireMirrorsCoherent(t, loaded, "after load")

	// And the loaded network's exact predictions match the trainer's
	// (both route layer 0 through the mirror).
	x := ds.Test[0].Features
	ids1, sc1, err := n.Predict(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	ids2, sc2, err := loaded.Predict(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] || sc1[i] != sc2[i] {
			t.Fatalf("loaded predictions diverged: %v/%v vs %v/%v", ids1, sc1, ids2, sc2)
		}
	}
}

// TestKernelFormCounters: a run on the paper architecture must exercise
// both forms — scatter on the mirrored input layer, gather on the sampled
// output layer — at the default thread count.
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
	for _, f := range []string{"gather", "scatter"} {
		if res.KernelForwards[f] == 0 {
			t.Fatalf("no %s forwards recorded: %v", f, res.KernelForwards)
		}
	}
}

// TestCrossoverPinsForm: the network's crossover is the one lever that
// pins a form. At 0 every pass gathers; above 1 every pass over the
// mirrored input layer scatters while the sampled output layer, which has
// no mirror, still gathers — one of each per forward, training and
// evaluation alike.
func TestCrossoverPinsForm(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	for _, tc := range []struct {
		name      string
		crossover float64
	}{{"gather", 0}, {"scatter", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			n := mustNet(t, tinyConfig(classes))
			n.crossover = tc.crossover
			res, err := n.Train(ds.Train, ds.Test, TrainConfig{BatchSize: 32, Iterations: 4, Seed: 5, EvalSamples: 16})
			if err != nil {
				t.Fatal(err)
			}
			gather, scatter := res.KernelForwards["gather"], res.KernelForwards["scatter"]
			if gather == 0 {
				t.Fatalf("no gather forwards recorded: %v", res.KernelForwards)
			}
			if tc.crossover == 0 && scatter != 0 || tc.crossover > 1 && scatter != gather {
				t.Fatalf("crossover %v: %v", tc.crossover, res.KernelForwards)
			}
		})
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
		st.nextEpoch()
		ls := &st.layers[1]
		ls.reset(false, 0)
		n.fallbackActive(st, 1)
		want := min(beta, 128)
		if len(ls.ids) != want {
			t.Fatalf("beta %d: fallback drew %d ids, want %d", beta, len(ls.ids), want)
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
		st.nextEpoch()
		ls.reset(false, 0)
		n.fallbackActive(st, 1)
		second := append([]int32(nil), ls.ids...)
		st.reseed(42)
		st.nextEpoch()
		ls.reset(false, 0)
		n.fallbackActive(st, 1)
		for i := range second {
			if ls.ids[i] != second[i] {
				t.Fatalf("beta %d: fallback not reproducible under a fixed seed", beta)
			}
		}
		_ = first
	}
}
