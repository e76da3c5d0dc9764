// Package core implements the SLIDE network (§3 of the paper): layers of
// neurons with per-layer LSH hash tables, adaptive active-neuron sampling
// in the forward pass, sparse message-passing backpropagation touching
// only active neurons and weights, HOGWILD-style asynchronous gradient
// updates across a batch, and exponential-decay hash-table rebuilds.
//
// The reference system is neuron-object-centric (Fig. 2): every neuron
// owns batch-length activation/gradient/active arrays. This implementation
// keeps the identical information keyed the other way — each batch element
// (one goroutine's work item) owns its active-id list, activations and
// gradients — which preserves the paper's thread independence argument
// (state is private per element, weight updates are the only shared
// writes) while being the cache-friendly layout in Go.
package core

import (
	"fmt"
	"runtime"

	"repro/internal/hashtable"
	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/optim"
	"repro/internal/sampling"
)

// KernelMode selects the forward/backward kernel engine
// (internal/kernels). The zero value is the density-adaptive engine; the
// other modes pin one form, for equivalence tests, benchmarks and the
// kernels experiment's ablation.
type KernelMode int

const (
	// KernelAuto plans each pass from the measured input density:
	// gather for sampled/dense-input layers, scatter for mirrored dense
	// layers on sparse inputs below the density crossover.
	KernelAuto KernelMode = iota
	// KernelLegacy runs the pre-engine per-neuron reference path —
	// unsorted active ids, unfused scalar row loops. Kept alive as the
	// equivalence-test baseline, the same role applyAdamFused plays for
	// the optimizer.
	KernelLegacy
	// KernelGather forces the gather form everywhere.
	KernelGather
	// KernelScatter forces the scatter form wherever a mirror exists
	// (elsewhere it degrades to gather — the form is incomputable).
	KernelScatter
)

// String returns the configuration name of the kernel mode.
func (k KernelMode) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelLegacy:
		return "legacy"
	case KernelGather:
		return "gather"
	case KernelScatter:
		return "scatter"
	default:
		return fmt.Sprintf("KernelMode(%d)", int(k))
	}
}

// kernelConfig maps the mode to the engine's planning policy.
func (k KernelMode) kernelConfig() kernels.Config {
	var c kernels.Config
	switch k {
	case KernelLegacy:
		c.Force = kernels.FormLegacy
	case KernelGather:
		c.Force = kernels.FormGather
	case KernelScatter:
		c.Force = kernels.FormScatter
	}
	return c.WithDefaults()
}

// MirrorFormat selects the numeric storage of the scatter-form weight
// mirrors (internal/kernels). The zero value is exact fp32.
type MirrorFormat int

const (
	// MirrorFP32 keeps mirrors in exact float32 — bit-identical to the
	// row-major weights, the default.
	MirrorFP32 MirrorFormat = iota
	// MirrorBF16 stores mirrors in bfloat16, halving the bytes the
	// scatter forward streams; forward results drift by at most the bf16
	// rounding of each weight (relative ≤ 2⁻⁸ per cell).
	MirrorBF16
)

// String returns the configuration name of the mirror format.
func (m MirrorFormat) String() string {
	switch m {
	case MirrorFP32:
		return "fp32"
	case MirrorBF16:
		return "bf16"
	default:
		return fmt.Sprintf("MirrorFormat(%d)", int(m))
	}
}

// kernelFormat maps the core enum to the kernels-layer format. The int8
// stretch format exists only at the kernels layer (per-column scales need
// a rebuild policy training doesn't provide yet) and is deliberately not
// exposed here.
func (m MirrorFormat) kernelFormat() kernels.MirrorFormat {
	if m == MirrorBF16 {
		return kernels.MirrorBF16
	}
	return kernels.MirrorFP32
}

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

// Layout selects parameter memory placement (the Fig. 10 / Table 4
// optimization ablation).
type Layout int

const (
	// LayoutContiguous packs each layer's weights and Adam moments into
	// few large arena slabs (the hugepage-analog optimized layout).
	LayoutContiguous Layout = iota
	// LayoutPerNeuron allocates every neuron's rows separately (the
	// plain, unoptimized layout).
	LayoutPerNeuron
)

// String returns the configuration name of the layout.
func (l Layout) String() string {
	switch l {
	case LayoutContiguous:
		return "contiguous"
	case LayoutPerNeuron:
		return "per-neuron"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
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
	// RangePow, BucketSize and Policy configure the tables (§3.2, §4.2);
	// zero values select hashtable defaults.
	RangePow   int
	BucketSize int
	Policy     hashtable.Policy
	// Strategy selects the retrieval strategy (§4.1) and Beta the target
	// active count β_l; MinCount is hard thresholding's m.
	Strategy sampling.Kind
	Beta     int
	MinCount int
	// SimhashDensity, BinSize and TopK forward to lsh.Params; zero
	// selects that package's defaults.
	SimhashDensity float64
	BinSize        int
	TopK           int
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
	// optim.NewAdam(0.001).
	Adam optim.Adam
	// UpdateMode selects the gradient write discipline (§3.1); the
	// default is the paper's HOGWILD asynchronous updates.
	UpdateMode optim.UpdateMode

	// RebuildN0 is the initial hash-table rebuild period in iterations
	// and RebuildLambda the exponential decay constant (§4.2): the t-th
	// rebuild happens after a gap of N0*exp(Lambda*(t-1)) iterations.
	// Zero values select N0=50 (the paper's setting) and Lambda=0.1.
	// Every rebuild re-hashes every row of every sampled layer.
	RebuildN0     int
	RebuildLambda float64

	// Layout and PadRows select the memory optimizations (Fig. 10):
	// contiguous arena slabs and cache-line row padding.
	Layout  Layout
	PadRows bool

	// Kernels selects the forward/backward kernel engine form. The
	// default (KernelAuto) picks gather or scatter per pass from the
	// measured input density; KernelLegacy restores the per-neuron
	// reference path. Serialized with the model config; files written
	// before the field existed load as KernelAuto.
	Kernels KernelMode

	// ScatterCrossover pins the gather/scatter density crossover the
	// KernelAuto planner uses, in (0, 1). Zero — the default — measures
	// it once per process at startup (kernels.CalibratedCrossover), so
	// the plan adapts to the machine; pin it for runs whose kernel-form
	// decisions must be reproducible across machines.
	ScatterCrossover float64

	// MirrorFormat selects the numeric storage of the scatter-form
	// weight mirrors: exact fp32 (default) or bf16, which halves the
	// mirror bytes the forward streams at a bounded accuracy cost (the
	// row-major weights, gradients and optimizer state stay fp32).
	MirrorFormat MirrorFormat
}

// kernelsConfig resolves the network's kernel-planning policy: the mode's
// base config, with the gather/scatter crossover pinned by
// ScatterCrossover or — for the adaptive planner — measured once per
// process on this machine.
func (c Config) kernelsConfig() kernels.Config {
	kc := c.Kernels.kernelConfig()
	if c.ScatterCrossover > 0 {
		kc.ScatterMaxDensity = c.ScatterCrossover
	} else if c.Kernels == KernelAuto {
		kc.ScatterMaxDensity = kernels.CalibratedCrossover()
	}
	return kc
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

func (c Config) validate() error {
	if c.InputDim <= 0 {
		return fmt.Errorf("core: InputDim must be positive, got %d", c.InputDim)
	}
	if len(c.Layers) == 0 {
		return fmt.Errorf("core: at least one layer required")
	}
	if c.Kernels < KernelAuto || c.Kernels > KernelScatter {
		return fmt.Errorf("core: unknown kernel mode %d", int(c.Kernels))
	}
	if c.ScatterCrossover < 0 || c.ScatterCrossover >= 1 {
		return fmt.Errorf("core: ScatterCrossover must be in [0, 1), got %g", c.ScatterCrossover)
	}
	if c.MirrorFormat < MirrorFP32 || c.MirrorFormat > MirrorBF16 {
		return fmt.Errorf("core: unknown mirror format %d", int(c.MirrorFormat))
	}
	for i, lc := range c.Layers {
		if lc.Size <= 0 {
			return fmt.Errorf("core: layer %d size must be positive, got %d", i, lc.Size)
		}
		if lc.Sampled {
			if lc.K <= 0 || lc.L <= 0 {
				return fmt.Errorf("core: sampled layer %d needs positive K and L, got K=%d L=%d", i, lc.K, lc.L)
			}
			if lc.Beta <= 0 && lc.Strategy != sampling.KindHardThreshold {
				return fmt.Errorf("core: sampled layer %d needs positive Beta for strategy %v", i, lc.Strategy)
			}
		}
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
	// Threads is the worker count; zero selects GOMAXPROCS.
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
	// internal/dist for the in-process and TCP implementations.
	Exchanger DeltaExchanger

	// Compress selects the wire representation of the exchanged delta
	// (ignored without an Exchanger): exact fp32 (the default), bf16
	// values, or top-k selection with error feedback. All shards must
	// agree — the TCP handshake digest covers it, and the in-process
	// Mesh applies the same rounding — because a merged delta computed
	// from mixed representations would diverge the replicas' weights.
	Compress DeltaCompression
	// TopKFrac is the fraction of each layer's fresh batch gradient
	// cells CompressTopK ships, in (0, 1]; the rest feed the
	// per-replica error-feedback residual, which re-competes whenever
	// its cells are next touched. Ignored for other compression modes.
	TopKFrac float64

	// OverlapExchange hides the delta exchange behind the next batch's
	// forward pass (the §6 communication made invisible): each batch
	// extracts its delta and launches the exchange on a background
	// goroutine, the next batch's forward runs concurrently — it reads
	// weights and tables but never gW, and no weights step mid-flight —
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

	// SyncRebuild forces scheduled hash-table rebuilds to run inline,
	// stopping the training loop for the whole reconstruction (the
	// pre-async behavior, kept for comparison runs — see
	// TrainResult.RebuildStallNS). The default is the non-blocking
	// lifecycle: rebuilds prepare a weight snapshot at a batch boundary,
	// build a shadow table set on a background goroutine while batches
	// keep running, and publish it atomically at a later boundary.
	SyncRebuild bool
}

func (tc TrainConfig) withDefaults(trainSize int) TrainConfig {
	if tc.BatchSize == 0 {
		tc.BatchSize = 128
	}
	if tc.Threads == 0 {
		tc.Threads = runtime.GOMAXPROCS(0)
	}
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
