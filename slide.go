// Package slide is a Go implementation of SLIDE (Sub-LInear Deep learning
// Engine) from "SLIDE: In Defense of Smart Algorithms over Hardware
// Acceleration for Large-Scale Deep Learning Systems" (Chen et al., MLSys
// 2020).
//
// SLIDE trains large fully connected networks — extreme multi-label
// classifiers whose wide softmax output layer dominates the compute — by
// replacing the full forward/backward pass with adaptive sparsity: each
// layer keeps locality-sensitive hash tables over its neurons' weight
// vectors, the layer input retrieves a small set of active neurons per
// example, and only those neurons' activations, gradients and weights are
// touched. Batch elements run on parallel goroutines with no shared
// writes; weights are stepped once per batch, so training gives the same
// bits at any thread count (see Network.Train).
//
// # Quick start
//
//	ds, _ := dataset.Generate(dataset.Delicious200K(0.01, 42))   // or load real XC data
//	net, _ := slide.New(slide.Config{
//	    InputDim: ds.InputDim,
//	    Layers: []slide.LayerConfig{
//	        {Size: 128, Activation: slide.ActReLU},
//	        {
//	            Size: ds.NumClasses, Activation: slide.ActSoftmax,
//	            Sampled: true, Hash: slide.HashSimhash, K: 9, L: 50,
//	            Strategy: slide.StrategyVanilla, Beta: 1024,
//	        },
//	    },
//	    Seed: 42,
//	})
//	res, _ := net.Train(ds.Train, ds.Test, slide.TrainConfig{Epochs: 3})
//	fmt.Printf("P@1 = %.3f in %.1fs\n", res.FinalAcc, res.Seconds)
//
// The subpackages under internal implement the substrates (LSH families,
// hash tables, sampling strategies, optimizers, baselines, datasets); this
// package re-exports the stable public surface.
package slide

import (
	"io"

	"repro/internal/core"
	"repro/internal/hashtable"
	"repro/internal/lsh"
	"repro/internal/optim"
	"repro/internal/sampling"
	"repro/internal/sparse"
)

// Network is a SLIDE network. Scheduled hash-table rebuilds run off the
// training hot path by default: a shadow table set is built on a
// background goroutine from a batch-boundary weight snapshot and
// published with an atomic swap, so training batches block only for the
// snapshot copy (TrainResult.RebuildStallNS accounts it;
// TrainConfig.SyncRebuild restores the stop-the-world path). See
// core.Network for method documentation.
type Network = core.Network

// Predictor is a reusable, concurrency-safe inference session over a
// Network: it pools per-worker element states so steady-state prediction
// allocates no per-call inference state, and fans batches out across
// workers. Hash tables are read through atomically swapped handles, so
// prediction stays valid in the middle of a background table rebuild.
// Construct one with Network.NewPredictor and share it between
// goroutines; see core.Predictor for method documentation (Predict,
// PredictSampled, PredictBatch, PredictBatchSampled, TopKWithScores,
// TopKWithScoresCtx — the context-aware variant servers use to honor
// per-request deadlines).
type Predictor = core.Predictor

// PredictOpts requests deterministic sampled inference: passing
// PredictOpts{Seed: s} to PredictSampled, PredictBatchSampled or
// TopKWithScores reseeds the worker state's sampling streams from s
// before the forward pass, so identical (input, seed) calls return
// bitwise-identical ids and scores regardless of pool state, concurrency
// or prior traffic. Calls without a PredictOpts keep the nondeterministic
// pooled fast path. See core.PredictOpts.
type PredictOpts = core.PredictOpts

// Vector is the sparse input vector type consumed by Predict and carried
// by dataset examples: parallel (index, value) lists over a fixed
// dimension.
type Vector = sparse.Vector

// Config configures a network; LayerConfig configures one layer.
type (
	Config      = core.Config
	LayerConfig = core.LayerConfig
)

// TrainConfig, TrainResult and EvalResult parameterize and report
// training and evaluation runs. Point is one entry of a training curve.
type (
	TrainConfig = core.TrainConfig
	TrainResult = core.TrainResult
	EvalResult  = core.EvalResult
	Point       = core.Point
)

// Adam holds the optimizer hyperparameters for Config.Adam.
type Adam = optim.Adam

// SparseDelta is one batch's gradient in explicit sparse form (§3.1's s²
// fraction, §6's distributed exchange payload). LayerDelta is one layer's
// slice of it, in the layer's storage orientation: the touched storage
// rows — inputs on an unsampled first layer, which stores its weights
// input-major, neurons elsewhere — each a dense vector of raw gradient sums
// over the layer's columns, plus the touched neurons' bias gradients. Zero
// means no gradient: a zero cell or bias is never stepped.
// Network.ExtractDelta produces it at a batch boundary and
// Network.ApplyDelta consumes it; repro/dist merges and ships it between
// data-parallel replicas.
type (
	SparseDelta = core.SparseDelta
	LayerDelta  = core.LayerDelta
)

// DeltaExchanger merges one replica's per-batch SparseDelta with its
// peers' (TrainConfig.Exchanger); repro/dist provides the in-process
// all-reduce and TCP implementations.
type DeltaExchanger = core.DeltaExchanger

// DeltaCompression selects how TrainConfig compresses the exchanged
// per-batch delta: full fp32 values, bf16 values, or top-k magnitude
// selection with error feedback (TrainConfig.TopKFrac).
type DeltaCompression = core.DeltaCompression

// Delta compression modes for TrainConfig.Compress.
const (
	CompressFP32 = core.CompressFP32
	CompressBF16 = core.CompressBF16
	CompressTopK = core.CompressTopK
)

// MergeDeltas sums deltas row by row in part order into dst (reused when
// non-nil) — the deterministic merge data-parallel replicas apply.
func MergeDeltas(dst *SparseDelta, parts []*SparseDelta) (*SparseDelta, error) {
	return core.MergeDeltas(dst, parts)
}

// HashKind, StrategyKind and Policy are the configuration enum types
// behind the Hash*/Strategy*/Policy* constants.
type (
	HashKind     = lsh.Kind
	StrategyKind = sampling.Kind
	Policy       = hashtable.Policy
)

// Activation constants for LayerConfig.Activation.
const (
	ActReLU    = core.ActReLU
	ActSoftmax = core.ActSoftmax
	ActLinear  = core.ActLinear
)

// Hash family constants for LayerConfig.Hash (§3.2, App. A of the paper).
const (
	HashSimhash = lsh.KindSimhash
	HashWTA     = lsh.KindWTA
	HashDWTA    = lsh.KindDWTA
	HashDOPH    = lsh.KindDOPH
)

// Sampling strategy constants for LayerConfig.Strategy (§4.1).
const (
	StrategyVanilla       = sampling.KindVanilla
	StrategyTopK          = sampling.KindTopK
	StrategyHardThreshold = sampling.KindHardThreshold
	StrategyRandom        = sampling.KindRandom
)

// Bucket insertion policies for LayerConfig.Policy (§4.2).
const (
	PolicyReservoir = hashtable.PolicyReservoir
	PolicyFIFO      = hashtable.PolicyFIFO
)

// New constructs an initialized SLIDE network: random weights, K×L hash
// functions per sampled layer, and hash tables populated from the initial
// weight vectors (Algorithm 1, lines 3-6).
func New(cfg Config) (*Network, error) { return core.NewNetwork(cfg) }

// LoadModel reads a self-describing model written by Network.SaveModel:
// the network is reconstructed from the embedded configuration, weights
// are restored, and hash tables rebuilt. This is the serving entry point
// — slide-serve loads models exclusively through it.
func LoadModel(r io.Reader) (*Network, error) { return core.LoadModel(r) }

// NewAdam returns Adam hyperparameters at the given learning rate for
// Config.Adam.
func NewAdam(lr float32) Adam { return optim.NewAdam(lr) }

// NewVector returns a sparse vector over dim copying the given
// components; indices are sorted and validated, duplicates summed.
func NewVector(dim int, idx []int32, val []float32) (Vector, error) {
	return sparse.New(dim, idx, val)
}

// VectorFromDense returns the sparse form of a dense vector.
func VectorFromDense(d []float32) Vector { return sparse.FromDense(d) }

// ParseHash parses a hash family name ("simhash", "wta", "dwta", "doph").
func ParseHash(s string) (HashKind, error) { return lsh.ParseKind(s) }

// ParseStrategy parses a sampling strategy name ("vanilla", "topk",
// "hard-threshold", "random").
func ParseStrategy(s string) (StrategyKind, error) { return sampling.ParseKind(s) }

// ParsePolicy parses a bucket insertion policy name ("reservoir",
// "fifo").
func ParsePolicy(s string) (Policy, error) { return hashtable.ParsePolicy(s) }

// ParseCompression parses a delta compression spec ("fp32", "bf16",
// "topk:<frac>"); the fraction accompanies CompressTopK as
// TrainConfig.TopKFrac.
func ParseCompression(s string) (DeltaCompression, float64, error) {
	return core.ParseCompression(s)
}
