// Package samsoftmax implements the sampled softmax baseline (§5.1): the
// static, input-independent candidate sampling that TensorFlow ships
// (Jean et al. 2015), which the paper contrasts with SLIDE's adaptive
// LSH sampling in Fig. 7 and Fig. 8.
//
// The trainer reuses the SLIDE engine with the output layer's retrieval
// strategy replaced by uniform random candidate sampling: per element, the
// candidate set is the true labels plus Beta uniform negatives, and the
// softmax normalizes over that set. This makes the comparison exactly the
// paper's: the only difference between the red and green curves is
// whether the sampling distribution adapts to the input. With uniform
// sampling every candidate shares the same expected count, so the
// sampled-softmax logit correction (-log q) shifts all logits equally and
// cancels in the softmax; it is therefore omitted.
package samsoftmax

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/optim"
	"repro/internal/sampling"
)

// Config parameterizes the sampled softmax baseline.
type Config struct {
	// InputDim, Hidden and Classes define the architecture (one hidden
	// ReLU layer in the paper's tasks).
	InputDim int
	Hidden   []int
	Classes  int
	// Samples is the number of sampled candidate classes per example.
	// The paper finds ~20% of classes are needed for decent accuracy
	// (§5.1) while SLIDE needs ~0.5%.
	Samples int
	// Seed drives initialization and sampling.
	Seed uint64
	// Adam holds optimizer hyperparameters; zero LR selects 0.001.
	Adam optim.Adam
}

// New builds the baseline as a core network whose output layer uses the
// static random strategy.
func New(cfg Config) (*core.Network, error) {
	if cfg.Samples <= 0 {
		return nil, fmt.Errorf("samsoftmax: Samples must be positive, got %d", cfg.Samples)
	}
	if cfg.Samples > cfg.Classes {
		return nil, fmt.Errorf("samsoftmax: Samples %d exceeds Classes %d", cfg.Samples, cfg.Classes)
	}
	layers := make([]core.LayerConfig, 0, len(cfg.Hidden)+1)
	for _, h := range cfg.Hidden {
		layers = append(layers, core.LayerConfig{Size: h, Activation: core.ActReLU})
	}
	layers = append(layers, core.LayerConfig{
		Size:       cfg.Classes,
		Activation: core.ActSoftmax,
		Sampled:    true,
		// KindRandom ignores the hash tables; K/L are the minimal legal
		// values so table construction stays negligible.
		K: 1, L: 1,
		Strategy: sampling.KindRandom,
		Beta:     cfg.Samples,
	})
	return core.NewNetwork(core.Config{
		InputDim: cfg.InputDim,
		Layers:   layers,
		Seed:     cfg.Seed,
		Adam:     cfg.Adam,
		// The tables are never consulted; disable rebuild churn.
		RebuildN0:     1 << 30,
		RebuildLambda: 1,
	})
}

// Train is a convenience wrapper mirroring core.Network.Train.
func Train(cfg Config, train, test []dataset.Example, tc core.TrainConfig) (*core.TrainResult, error) {
	n, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return n.Train(train, test, tc)
}
