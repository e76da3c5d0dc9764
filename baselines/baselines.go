// Package baselines is the public surface of the comparison systems the
// paper measures SLIDE against: the dense full-softmax CPU trainer (the
// TF-CPU analog) and TensorFlow-style static sampled softmax (§5.1 /
// Fig. 7).
//
// It re-exports repro/internal/{dense,samsoftmax} so examples,
// binaries and external consumers never import internal packages
// directly.
package baselines

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dense"
	"repro/internal/samsoftmax"
)

// DenseNetwork is the dense full-softmax baseline network.
type DenseNetwork = dense.Network

// DenseConfig configures the dense baseline.
type DenseConfig = dense.Config

// DenseTrainConfig parameterizes dense baseline training.
type DenseTrainConfig = dense.TrainConfig

// DenseTrainResult reports a dense baseline training run.
type DenseTrainResult = dense.TrainResult

// NewDense constructs an initialized dense full-softmax network.
func NewDense(cfg DenseConfig) (*DenseNetwork, error) { return dense.New(cfg) }

// SampledSoftmaxConfig configures the static uniform sampled-softmax
// baseline.
type SampledSoftmaxConfig = samsoftmax.Config

// NewSampledSoftmax constructs the sampled-softmax baseline as a SLIDE
// network with a static uniform candidate sampler.
func NewSampledSoftmax(cfg SampledSoftmaxConfig) (*core.Network, error) {
	return samsoftmax.New(cfg)
}

// TrainSampledSoftmax trains the sampled-softmax baseline.
func TrainSampledSoftmax(cfg SampledSoftmaxConfig, train, test []dataset.Example, tc core.TrainConfig) (*core.TrainResult, error) {
	return samsoftmax.Train(cfg, train, test, tc)
}
