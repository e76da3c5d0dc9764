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
// training hot path: a shadow table set is built on a background
// goroutine from a batch-boundary weight snapshot and published with an
// atomic swap a fixed, schedule-derived number of batches later, so
// training batches block only for the snapshot copy (and for a build
// that overruns its lag; TrainResult.RebuildStallNS accounts both), and
// the trained bits do not depend on timing. See core.Network for method
// documentation.
type Network = core.Network

// Predictor is a reusable, concurrency-safe inference session over a
// Network: it pools per-worker element states so steady-state prediction
// allocates no per-call inference state, and fans batches out across
// workers. Hash tables are read through atomically swapped handles, so
// prediction stays valid in the middle of a background table rebuild.
// Construct one with Network.NewPredictor and share it between
// goroutines. Its one inference call is PredictBatchInto(ctx, xs, k,
// sampled, res, opts...): exact or sampled top-k for every input, written
// into a reusable BatchResults, with ctx cancellation checked between
// elements so servers can honor per-request deadlines. Predict and
// TopKWithScoresInto are one-input wrappers over it; see core.Predictor.
type Predictor = core.Predictor

// BatchResults is the reusable result storage PredictBatchInto writes:
// IDs[i] and Scores[i] are element i's top-k, highest first, valid until
// the next call on the same BatchResults. See core.BatchResults.
type BatchResults = core.BatchResults

// PredictOpts requests deterministic sampled inference: passing
// PredictOpts{Seed: s} to a sampled PredictBatchInto (or to
// Network.PredictSampled) reseeds the worker state's sampling streams
// before each element's forward pass — element i from s and i, element 0
// from s itself — so identical (input, seed) calls return
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
// fraction, §6's distributed exchange payload): the batch's records, each
// element's sufficient factors — its features and, per layer, its active
// ids, δ and activations — from which the weight gradient is a sum of one
// rank-one product per element. LayerDelta is one layer's factors for
// every record. Network.ExtractDelta copies a batch's records into it at a
// batch boundary and Network.ApplyDelta folds them into one Adam step;
// repro/dist ships and merges it between data-parallel replicas.
type (
	SparseDelta = core.SparseDelta
	LayerDelta  = core.LayerDelta
)

// DeltaExchanger merges one replica's per-batch SparseDelta with its
// peers' (TrainConfig.Exchanger); repro/dist provides the TCP
// implementation.
type DeltaExchanger = core.DeltaExchanger

// MergeDeltas concatenates deltas' records in part order into dst (reused
// when non-nil), refusing a non-finite factor — the deterministic merge
// data-parallel replicas fold, which steps exactly as one process would on
// the combined batch.
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

// Hash family constants for LayerConfig.Hash (§3.2, App. A of the paper):
// the two families the paper evaluates, Simhash on Delicious-200K and DWTA
// on Amazon-670K.
const (
	HashSimhash = lsh.KindSimhash
	HashDWTA    = lsh.KindDWTA
)

// Sampling strategy constants for LayerConfig.Strategy (§4.1): vanilla
// sampling over the tables, and the uniform draw of the sampled softmax
// baseline.
const (
	StrategyVanilla = sampling.KindVanilla
	StrategyRandom  = sampling.KindRandom
)

// PolicyReservoir is the bucket insertion policy (§4.2), the only value
// of LayerConfig.Policy.
const PolicyReservoir = hashtable.PolicyReservoir

// New constructs an initialized SLIDE network: random weights, K×L hash
// functions per sampled layer, and hash tables populated from the initial
// weight vectors (Algorithm 1, lines 3-6).
func New(cfg Config) (*Network, error) { return core.NewNetwork(cfg) }

// LoadModel reads a self-describing model written by Network.SaveModel:
// the network is reconstructed from the embedded configuration, and its
// weights and hash tables are read from the file, nothing recomputed.
// Given an *os.File on Linux or Darwin it maps the file, and the layers'
// weights are views of it, so a load copies no weight; the mapping is
// released once no network loaded from it is reachable. Until then the
// file must not be truncated or rewritten in place — its pages may still
// be read, and a truncated page faults the process (SIGBUS) — so replace
// a model file by renaming a new one over it, as slide-train -save does.
// Tables are checked for bounds, not against the weights: like the
// weights, they are trusted to be what SaveModel wrote, and nothing
// checksums the file. Files of a retired format are refused by name.
// This is the serving entry point — slide-serve loads models exclusively
// through it.
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

// ParseHash parses a hash family name ("simhash", "dwta").
func ParseHash(s string) (HashKind, error) { return lsh.ParseKind(s) }
