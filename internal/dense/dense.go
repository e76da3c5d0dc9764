// Package dense implements the full-computation baseline that stands in
// for TensorFlow-CPU in the paper's comparisons (§5): the same
// architecture, initialization, Adam optimizer and multi-core parallelism
// as the SLIDE network, but computing every neuron's activation and
// updating every parameter each iteration — the full softmax over all
// classes that SLIDE's adaptive sampling avoids.
//
// The per-iteration math is exactly what a dense framework executes, so a
// run's accuracy-vs-iteration curve doubles as the TF-GPU curve once the
// gpusim package re-times it (the GPU changes the clock, not the math).
package dense

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/arena"
	"repro/internal/optim"
	"repro/internal/rng"
	"repro/internal/vecmath"
)

// Config describes the dense network: input -> hidden (ReLU) -> classes
// (softmax), the paper's architecture with one hidden layer of 128.
type Config struct {
	// InputDim is the feature dimensionality.
	InputDim int
	// Hidden lists the hidden layer sizes.
	Hidden []int
	// Classes is the output layer size.
	Classes int
	// Seed drives initialization.
	Seed uint64
	// Adam holds optimizer hyperparameters; zero LR selects
	// optim.NewAdam(0.001).
	Adam optim.Adam
}

func (c Config) withDefaults() Config {
	if c.Adam.LR == 0 {
		c.Adam = optim.NewAdam(0.001)
	}
	return c
}

func (c Config) validate() error {
	if c.InputDim <= 0 || c.Classes <= 0 {
		return fmt.Errorf("dense: InputDim and Classes must be positive, got %d and %d", c.InputDim, c.Classes)
	}
	for i, h := range c.Hidden {
		if h <= 0 {
			return fmt.Errorf("dense: hidden layer %d size must be positive, got %d", i, h)
		}
	}
	return nil
}

// layer is one dense layer with neuron-major rows and Adam moments.
type layer struct {
	in, out int
	relu    bool
	w       [][]float32
	mW      [][]float32
	vW      [][]float32
	b, mB   []float32
	vB      []float32
}

// Network is the dense baseline model.
type Network struct {
	cfg    Config
	layers []*layer
	adam   optim.Adam
	step   int64
}

// New builds an initialized dense network with the same initialization
// scheme as the SLIDE network (He for ReLU layers, Xavier for the output).
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, adam: cfg.Adam}
	ar := arena.NewDefault()
	sizes := append(append([]int{}, cfg.Hidden...), cfg.Classes)
	in := cfg.InputDim
	r := rng.NewStream(cfg.Seed, 0xde45e)
	for li, out := range sizes {
		l := &layer{
			in: in, out: out,
			relu: li < len(sizes)-1,
			w:    ar.AllocRows(out, in, false),
			mW:   ar.AllocRows(out, in, false),
			vW:   ar.AllocRows(out, in, false),
			b:    ar.AllocAligned(out),
			mB:   ar.AllocAligned(out),
			vB:   ar.AllocAligned(out),
		}
		std := float32(math.Sqrt(2.0 / float64(in)))
		if !l.relu {
			std = float32(math.Sqrt(1.0 / float64(in)))
		}
		for j := 0; j < out; j++ {
			row := l.w[j]
			for i := range row {
				row[i] = std * r.NormFloat32()
			}
		}
		n.layers = append(n.layers, l)
		in = out
	}
	return n, nil
}

// Config returns the (defaulted) configuration.
func (n *Network) Config() Config { return n.cfg }

// Step returns completed training iterations.
func (n *Network) Step() int64 { return n.step }

// NumParams returns the total trainable parameter count.
func (n *Network) NumParams() int64 {
	var p int64
	for _, l := range n.layers {
		p += int64(l.out)*int64(l.in) + int64(l.out)
	}
	return p
}

// FLOPsPerIteration estimates the multiply-accumulate work of one training
// iteration at the given batch size and mean input non-zeros: forward,
// input-gradient and weight-gradient GEMMs (3 passes over each dense
// weight matrix per element) plus the full-parameter Adam update. Used by
// the gpusim cost model.
func (n *Network) FLOPsPerIteration(batch int, avgNNZ float64) float64 {
	var macs float64
	in := avgNNZ // the first layer consumes the sparse input
	for li, l := range n.layers {
		perElem := in * float64(l.out)
		passes := 3.0
		if li == 0 {
			passes = 2 // no input gradient is propagated to the features
		}
		macs += passes * float64(batch) * perElem
		in = float64(l.out)
	}
	adamOps := 6 * float64(n.NumParams()) // m, v updates + step, per parameter
	return 2*macs + adamOps
}

func defaultThreads() int { return runtime.GOMAXPROCS(0) }

// forwardHidden computes all hidden activations for a sparse input.
func (l *layer) forwardSparse(idx []int32, val []float32, out []float32) {
	for j := 0; j < l.out; j++ {
		out[j] = l.b[j] + vecmath.SparseDot(idx, val, l.w[j])
	}
	if l.relu {
		vecmath.ReLU(out)
	}
}

// forwardDense computes activations for a dense input.
func (l *layer) forwardDense(in []float32, out []float32) {
	out = out[:l.out]
	vecmath.DotRows(out, l.w, nil, in)
	for j := range out {
		out[j] = l.b[j] + out[j]
	}
	if l.relu {
		vecmath.ReLU(out)
	}
}
