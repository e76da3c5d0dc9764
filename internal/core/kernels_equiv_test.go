package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/lsh"
	"repro/internal/sampling"
	"repro/internal/sparse"
)

// Kernel-equivalence property tests: the density-adaptive engine's gather
// and scatter forms must agree with the legacy per-neuron reference path
// across architectures, active fractions, full/dense modes and all three
// activations. Per-row summation order is preserved by the gather form
// (bitwise agreement modulo position permutation); the scatter form and
// softmax normalization reassociate sums and are held to a 1e-5 relative
// bound. The internal/kernels and internal/vecmath tests pin the bitwise
// halves at the kernel level; these tests pin the network-level routing.

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

// outMap flattens the output layer's active state to id → activation.
func outMap(st *elemState) map[int32]float32 {
	out := &st.layers[len(st.layers)-1]
	m := make(map[int32]float32, len(out.vals))
	if out.full {
		for j, v := range out.vals {
			m[int32(j)] = v
		}
		return m
	}
	for a, j := range out.ids {
		m[j] = out.vals[a]
	}
	return m
}

func relDiff(a, b float32) float64 {
	fa, fb := float64(a), float64(b)
	scale := math.Max(1, math.Max(math.Abs(fa), math.Abs(fb)))
	return math.Abs(fa-fb) / scale
}

// TestKernelForwardEquivalence runs identical inputs through networks
// that differ only in kernel mode and requires the active sets to match
// exactly and the activations to agree within 1e-5.
func TestKernelForwardEquivalence(t *testing.T) {
	for name, cfg := range equivArchs() {
		for _, mode := range []forwardMode{modeTrain, modeEvalSampled, modeEvalFull} {
			t.Run(fmt.Sprintf("%s/mode%d", name, mode), func(t *testing.T) {
				nets := map[KernelMode]*Network{}
				states := map[KernelMode]*elemState{}
				for _, km := range []KernelMode{KernelLegacy, KernelAuto, KernelGather, KernelScatter} {
					c := cfg
					c.Kernels = km
					n, err := NewNetwork(c)
					if err != nil {
						t.Fatal(err)
					}
					st, err := newElemState(n, 77, 0)
					if err != nil {
						t.Fatal(err)
					}
					nets[km], states[km] = n, st
				}
				labels := []int32{1, 5}
				for xi, x := range equivInputs(cfg.InputDim) {
					ref := nets[KernelLegacy]
					ref.forwardElem(states[KernelLegacy], x, labels, mode)
					want := outMap(states[KernelLegacy])
					for _, km := range []KernelMode{KernelAuto, KernelGather, KernelScatter} {
						nets[km].forwardElem(states[km], x, labels, mode)
						got := outMap(states[km])
						if len(got) != len(want) {
							t.Fatalf("input %d, %v: active set size %d, legacy %d", xi, km, len(got), len(want))
						}
						for j, wv := range want {
							gv, ok := got[j]
							if !ok {
								t.Fatalf("input %d, %v: neuron %d active under legacy only", xi, km, j)
							}
							if d := relDiff(gv, wv); d > 1e-5 {
								t.Fatalf("input %d, %v: neuron %d = %v, legacy %v (rel %.2g)", xi, km, j, gv, wv, d)
							}
						}
					}
				}
			})
		}
	}
}

// TestKernelBackwardEquivalence runs one element's forward+backward under
// each kernel mode and compares the extracted gradient deltas: identical
// touched cells, values within 1e-5.
func TestKernelBackwardEquivalence(t *testing.T) {
	for name, cfg := range equivArchs() {
		t.Run(name, func(t *testing.T) {
			type run struct {
				n  *Network
				st *elemState
			}
			runs := map[KernelMode]run{}
			for _, km := range []KernelMode{KernelLegacy, KernelAuto} {
				c := cfg
				c.Kernels = km
				n, err := NewNetwork(c)
				if err != nil {
					t.Fatal(err)
				}
				st, err := newElemState(n, 31, 0)
				if err != nil {
					t.Fatal(err)
				}
				runs[km] = run{n, st}
			}
			labels := []int32{2, 9}
			for xi, x := range equivInputs(cfg.InputDim) {
				var deltas map[KernelMode]*SparseDelta
				deltas = map[KernelMode]*SparseDelta{}
				for km, r := range runs {
					r.n.beginBatch()
					r.n.forwardElem(r.st, x, labels, modeTrain)
					r.n.backwardElem(r.st, x, labels, nil)
					deltas[km] = r.n.ExtractDelta(nil, 1)
				}
				want, got := deltas[KernelLegacy], deltas[KernelAuto]
				for li := range want.Layers {
					wl, gl := &want.Layers[li], &got.Layers[li]
					if len(wl.Rows) != len(gl.Rows) {
						t.Fatalf("input %d layer %d: %d touched rows, legacy %d", xi, li, len(gl.Rows), len(wl.Rows))
					}
					for r := range wl.Rows {
						if wl.Rows[r] != gl.Rows[r] {
							t.Fatalf("input %d layer %d: row set diverged at %d", xi, li, r)
						}
						if d := relDiff(gl.Bias[r], wl.Bias[r]); d > 1e-5 {
							t.Fatalf("input %d layer %d row %d: bias grad %v vs %v", xi, li, wl.Rows[r], gl.Bias[r], wl.Bias[r])
						}
					}
					if len(wl.Cols) != len(gl.Cols) {
						t.Fatalf("input %d layer %d: %d touched cells, legacy %d", xi, li, len(gl.Cols), len(wl.Cols))
					}
					for k := range wl.Cols {
						if wl.Cols[k] != gl.Cols[k] {
							t.Fatalf("input %d layer %d: cell set diverged at %d", xi, li, k)
						}
						if d := relDiff(gl.Vals[k], wl.Vals[k]); d > 1e-5 {
							t.Fatalf("input %d layer %d cell %d: grad %v vs %v (rel %.2g)", xi, li, k, gl.Vals[k], wl.Vals[k], d)
						}
					}
				}
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

// TestKernelFormCounters: an auto run on the paper architecture must
// exercise both forms (scatter on the mirrored input layer, gather on the
// sampled output layer) and never the legacy path; a legacy run must be
// legacy-only.
func TestKernelFormCounters(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	for _, tc := range []struct {
		mode        KernelMode
		wantNonZero []string
		wantZero    []string
	}{
		{KernelAuto, []string{"gather", "scatter"}, []string{"legacy"}},
		{KernelLegacy, []string{"legacy"}, []string{"gather", "scatter"}},
	} {
		cfg := tinyConfig(classes)
		cfg.Kernels = tc.mode
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// One thread: the legacy run's shared-gW HOGWILD backward races by
		// design, and the form counters don't depend on the thread count.
		res, err := n.Train(ds.Train, ds.Test, TrainConfig{BatchSize: 32, Iterations: 10, Threads: 1, Seed: 5, EvalEvery: 0, EvalSamples: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range tc.wantNonZero {
			if res.KernelForwards[f] == 0 {
				t.Fatalf("%v run: no %s forwards recorded: %v", tc.mode, f, res.KernelForwards)
			}
		}
		for _, f := range tc.wantZero {
			if res.KernelForwards[f] != 0 {
				t.Fatalf("%v run: unexpected %s forwards: %v", tc.mode, f, res.KernelForwards)
			}
		}
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
