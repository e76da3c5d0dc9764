// Package core implements the SLIDE network (§3 of the paper): layers of
// neurons with per-layer LSH hash tables, adaptive active-neuron sampling
// in the forward pass, sparse message-passing backpropagation touching
// only active neurons and weights, and exponential-decay hash-table
// rebuilds.
//
// The reference system is neuron-object-centric (Fig. 2): every neuron
// owns batch-length activation/gradient/active arrays. This implementation
// keeps the identical information keyed the other way — each batch
// position owns a record of its element's active ids, activations and
// deltas — which preserves the paper's thread independence argument: batch
// elements run on parallel workers with no shared writes at all. Weights
// move only at the batch boundary, where every touched row is replayed from
// the records by one owner in element order and stepped (fold.go), so the
// trained bits do not depend on the thread count.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/hashtable"
	"repro/internal/lsh"
	"repro/internal/optim"
	"repro/internal/sampling"
)

// Activation selects a layer non-linearity.
type Activation int

const (
	// ActReLU is max(0, x), the paper's hidden-layer activation.
	ActReLU Activation = iota
	// ActSoftmax normalizes over the active set only (§3.1): the softmax
	// denominator sums active neurons, not the full layer.
	ActSoftmax
	// ActLinear is the identity.
	ActLinear
)

// String returns the configuration name of the activation.
func (a Activation) String() string {
	switch a {
	case ActReLU:
		return "relu"
	case ActSoftmax:
		return "softmax"
	case ActLinear:
		return "linear"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// LayerConfig describes one fully connected layer.
type LayerConfig struct {
	// Size is the number of neurons.
	Size int
	// Activation is the non-linearity (§3.1).
	Activation Activation

	// Sampled enables LSH active-neuron sampling for this layer. When
	// false the layer computes all neurons (hidden layers in the paper's
	// architecture are dense; the wide softmax layer is sampled).
	Sampled bool
	// Hash selects the LSH family (§3.2). Used only when Sampled.
	Hash lsh.Kind
	// K and L are the meta-hash length and table count (§2).
	K, L int
	// RangePow and BucketSize configure the tables (§3.2); zero values
	// select hashtable defaults.
	RangePow   int
	BucketSize int
	// Policy is unused: buckets always replace by reservoir sampling
	// (§4.2), the zero value and the only one Validate accepts. It exists
	// for benchmark/probe.go and goes when a benchmark PR stops reading
	// it.
	Policy hashtable.Policy
	// Strategy selects the retrieval strategy (§4.1) — vanilla sampling,
	// or the uniform draw of the sampled softmax baseline — and Beta the
	// target active count β_l.
	Strategy sampling.Kind
	Beta     int
	// MinCount is unused: no strategy reads it. It exists because
	// benchmark/train.go sets it and benchmark/probe.go passes it on, and
	// goes when a benchmark PR stops doing both.
	MinCount int
	// SimhashDensity and BinSize forward to lsh.Params; zero selects
	// that package's defaults.
	SimhashDensity float64
	BinSize        int
	// TopK is unused: no hash family reads it. It exists for
	// benchmark/probe.go and goes when a benchmark PR stops reading it.
	TopK int
}

// Config describes a SLIDE network.
type Config struct {
	// InputDim is the feature dimensionality.
	InputDim int
	// Layers lists the layers, input to output. The final layer of a
	// classifier should use ActSoftmax.
	Layers []LayerConfig
	// Seed drives weight initialization, hash functions and sampling.
	Seed uint64

	// Adam holds optimizer hyperparameters; a zero LR selects
	// optim.NewAdam(0.001). Otherwise LR must be finite and not negative,
	// Beta1 and Beta2 in [0, 1), and Eps finite and positive.
	Adam optim.Adam

	// RebuildN0 is the initial hash-table rebuild period in iterations
	// and RebuildLambda the exponential decay constant (§4.2): the t-th
	// rebuild is due a gap of N0*exp(Lambda*(t-1)) iterations after the
	// previous one, and a gap beyond the int64 range means no further
	// rebuild. Zero values select N0=50 (the paper's setting) and
	// Lambda=0.1; N0 must not be negative nor Lambda non-finite. Every
	// rebuild re-hashes every row of every sampled layer.
	RebuildN0     int
	RebuildLambda float64
}

func (c Config) withDefaults() Config {
	if c.Adam.LR == 0 {
		c.Adam = optim.NewAdam(0.001)
	}
	if c.RebuildN0 == 0 {
		c.RebuildN0 = 50
	}
	if c.RebuildLambda == 0 {
		c.RebuildLambda = 0.1
	}
	return c
}

// maxShape bounds InputDim, every layer's Size and every layer's in×out
// weight count: neuron ids and a LayerDelta's columns and row offsets are
// int32, so nothing larger is addressable. Checking it here also stops a
// hostile model header before it sizes any allocation.
const maxShape = math.MaxInt32

// A sampled layer also sizes what a model file does not carry: K·L hash
// functions, each over the layer's fan-in, a rebuild's K·L codes per
// staged row, and L·(2^RangePow + 1) table offsets. maxHashFuncs caps K·L
// and maxTableOffsets caps L·2^RangePow (the automatic RangePow counted
// at its cap, hashtable.DefaultRangePowCap), so a small hostile model
// header cannot ask for gigabytes. At the caps the offsets take 512 MiB;
// the largest configs in use (K = 9, L = 50 at the automatic RangePow 18)
// stay far below both.
const (
	maxHashFuncs    = 1 << 12
	maxTableOffsets = 1 << 27
)

// validate refuses, before any layer is sized, a config that cannot run
// or whose allocations a small model file could inflate: shapes beyond
// maxShape, and for a sampled layer an unknown kind, K·L beyond
// maxHashFuncs (4096 hash functions) or L·2^RangePow beyond
// maxTableOffsets (2^27 offsets).
func (c Config) validate() error {
	if c.InputDim <= 0 || c.InputDim > maxShape {
		return fmt.Errorf("core: InputDim must be in [1, 2^31), got %d", c.InputDim)
	}
	if len(c.Layers) == 0 {
		return fmt.Errorf("core: at least one layer required")
	}
	// A zero LR selects the defaults (withDefaults). Otherwise Beta1 = 1
	// divides Alpha by zero, Beta2 = 1 makes it zero, a NaN anywhere
	// poisons every stepped weight and a negative LR ascends.
	if a := c.Adam; a.LR != 0 && (!(a.LR > 0 && a.LR <= math.MaxFloat32) || !(a.Beta1 >= 0 && a.Beta1 < 1) ||
		!(a.Beta2 >= 0 && a.Beta2 < 1) || !(a.Eps > 0 && a.Eps <= math.MaxFloat32)) {
		return fmt.Errorf("core: Adam needs a finite LR ≥ 0, Beta1 and Beta2 in [0, 1) and a finite Eps > 0, got %+v", a)
	}
	if c.RebuildN0 < 0 || math.IsNaN(c.RebuildLambda) || math.IsInf(c.RebuildLambda, 0) {
		return fmt.Errorf("core: RebuildN0 must not be negative and RebuildLambda must be finite, got %d and %v", c.RebuildN0, c.RebuildLambda)
	}
	in := c.InputDim
	for i, lc := range c.Layers {
		if lc.Size <= 0 {
			return fmt.Errorf("core: layer %d size must be positive, got %d", i, lc.Size)
		}
		if lc.Size > maxShape || int64(in)*int64(lc.Size) > maxShape {
			return fmt.Errorf("core: layer %d is %d×%d weights, beyond the 2^31 that int32 indices address", i, lc.Size, in)
		}
		if lc.Activation < ActReLU || lc.Activation > ActLinear {
			return fmt.Errorf("core: layer %d has unknown activation %d", i, int(lc.Activation))
		}
		if lc.Sampled {
			// Each kind's package decides which of its values run, so a
			// model file naming a removed or unknown kind is refused here,
			// before any layer is allocated.
			if err := errors.Join(lc.Hash.Validate(), lc.Strategy.Validate(), lc.Policy.Validate()); err != nil {
				return fmt.Errorf("core: sampled layer %d: %w", i, err)
			}
			if lc.K <= 0 || lc.L <= 0 {
				return fmt.Errorf("core: sampled layer %d needs positive K and L, got K=%d L=%d", i, lc.K, lc.L)
			}
			if lc.Beta <= 0 {
				return fmt.Errorf("core: sampled layer %d needs positive Beta, got %d", i, lc.Beta)
			}
			if min(lc.RangePow, lc.BucketSize, lc.MinCount, lc.BinSize, lc.TopK) < 0 {
				return fmt.Errorf("core: sampled layer %d: RangePow, BucketSize, MinCount, BinSize and TopK must not be negative", i)
			}
			if lc.K > maxHashFuncs/lc.L {
				return fmt.Errorf("core: sampled layer %d: K·L = %d·%d hash functions, beyond %d", i, lc.K, lc.L, maxHashFuncs)
			}
			rangePow := lc.RangePow
			if rangePow == 0 {
				rangePow = hashtable.DefaultRangePowCap
			}
			if lc.L > maxTableOffsets>>rangePow {
				return fmt.Errorf("core: sampled layer %d: L·2^RangePow = %d·2^%d table offsets, beyond 2^27", i, lc.L, rangePow)
			}
		}
		in = lc.Size
	}
	return nil
}

// TrainConfig controls a training run.
type TrainConfig struct {
	// BatchSize is the minibatch size (each element runs on its own
	// goroutine slot, §3.1). Zero selects 128.
	BatchSize int
	// Iterations is the number of batches to run. Zero derives it from
	// Epochs (full passes over the training split).
	Iterations int64
	// Epochs is used when Iterations is zero; zero selects 1.
	Epochs int
	// Threads is the worker count; zero selects GOMAXPROCS, and a count
	// above the batch size is cut to it. It changes only how fast training
	// runs, not what it computes (see Train).
	Threads int

	// EvalEvery evaluates P@1 on a held-out subset every this many
	// iterations (0 disables periodic evaluation; a final evaluation
	// always runs). Evaluation time is excluded from the recorded
	// training clock.
	EvalEvery int64
	// EvalSamples bounds the evaluation subset size; zero selects
	// min(1024, len(test)).
	EvalSamples int
	// TargetAcc stops training early once eval P@1 reaches it (0 =
	// never).
	TargetAcc float64
	// MaxSeconds bounds training wall-clock time (0 = unbounded).
	MaxSeconds float64
	// Seed shuffles the training order.
	Seed uint64
	// OnEval, when set, observes each evaluation point as it is
	// recorded.
	OnEval func(Point)

	// Shards is the total number of data-parallel replicas participating
	// in this training run, including this one (§6 distributed SLIDE).
	// With an Exchanger set, each batch's Adam step averages the merged
	// gradient over BatchSize*Shards examples; without one, Shards is
	// ignored. Zero selects 1.
	Shards int
	// Exchanger, when set, turns the run into one shard of a
	// data-parallel group: after every batch the locally extracted
	// SparseDelta is exchanged and the merged delta — the cell-wise sum
	// over all shards, identical on every replica — is applied instead.
	// All shards must run the same BatchSize and Iterations; early stops
	// (TargetAcc, MaxSeconds, context cancellation) are coordinated
	// through the exchange so every replica halts at the same step. See
	// internal/dist for the TCP implementation, which ships the delta as
	// exact fp32 between processes and between in-process replicas alike.
	Exchanger DeltaExchanger

	// OverlapExchange hides the delta exchange behind the next batch's
	// forward pass (the §6 communication made invisible): each batch
	// extracts its delta and launches the exchange on a background
	// goroutine, the next batch's forward runs concurrently — it reads
	// weights and tables but no gradient state, and no weights step
	// mid-flight —
	// and the merged delta is applied at a barrier before that batch's
	// backward pass. Forward passes therefore see weights one merged
	// step stale (the classic one-batch pipeline delay); the exchange
	// step sequence is unchanged, so overlapped and synchronous replicas
	// may share a group and stay in lockstep. TrainResult.ExchangeNS
	// then counts only the barrier time the forward failed to hide, with
	// the overlapped remainder in ExchangeHiddenNS. Ignored without an
	// Exchanger.
	OverlapExchange bool

	// SkipFinalEval suppresses the evaluation Train normally runs at
	// loop exit. Data-parallel replicas other than rank 0 set it: their
	// weights are bit-identical to rank 0's, so N final evaluations of
	// the same model would be pure redundant work.
	SkipFinalEval bool
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
			return fmt.Errorf("core: TrainConfig.%s must not be negative, got %d", f.name, f.v)
		}
	}
	return nil
}

// withDefaults fills the zero fields for a training split of trainSize
// examples, and cuts the batch to the split and the worker count to the
// batch.
func (tc TrainConfig) withDefaults(trainSize int) TrainConfig {
	if tc.BatchSize == 0 {
		tc.BatchSize = 128
	}
	tc.BatchSize = min(tc.BatchSize, trainSize)
	if tc.Threads == 0 {
		tc.Threads = runtime.GOMAXPROCS(0)
	}
	// A worker past the batch never gets a position, yet would hold an
	// InputDim accumulator and OutputDim sampler stamps.
	tc.Threads = min(tc.Threads, tc.BatchSize)
	if tc.Iterations == 0 {
		epochs := tc.Epochs
		if epochs == 0 {
			epochs = 1
		}
		perEpoch := (trainSize + tc.BatchSize - 1) / tc.BatchSize
		tc.Iterations = int64(epochs) * int64(perEpoch)
	}
	if tc.Shards < 1 {
		tc.Shards = 1
	}
	return tc
}
