package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rng"
)

func defaultThreads() int { return runtime.GOMAXPROCS(0) }

// TrainResult summarizes a training run.
type TrainResult struct {
	// Curve records P@1 on the evaluation subset against training
	// iterations and training-only wall-clock seconds (evaluation time
	// excluded, matching how the paper clocks convergence).
	Curve metrics.Curve
	// Iterations and Seconds are the totals for the run.
	Iterations int64
	Seconds    float64
	// FinalAcc is the last recorded P@1.
	FinalAcc float64
	// MeanActive[l] is the mean active-set size of layer l across the
	// run (≈1000 of 205K and ≈3000 of 670K in the paper's tasks).
	MeanActive []float64
	// Utilization is the mean worker busy fraction (Table 2 analog).
	Utilization float64
	// Rebuilds counts the hash-table reconstructions published during
	// this run.
	Rebuilds int
	// RebuildStallNS is the nanoseconds this run's training loop spent
	// blocked on table maintenance: the batch-boundary snapshot copies,
	// the atomic swap publication, and any wait at a publish step for a
	// build that overran its lag. The §4.2 "Updating Overhead" analog:
	// paper SLIDE amortizes rebuilds by scheduling them rarely, this
	// system additionally builds them off the critical path.
	RebuildStallNS int64
	// RebuildBuildNS is the nanoseconds this run's background shadow
	// builds took, mostly overlapped with training batches; the part
	// that was not shows in RebuildStallNS.
	RebuildBuildNS int64
	// RowsRehashed counts the neuron rows this run's rebuilds hashed:
	// sampled rows × rebuilds.
	RowsRehashed int64
	// RowsReused is always 0: no rebuild reuses a row's codes. It exists
	// for benchmark/train.go and goes when a benchmark PR drops
	// core.rows_reused.
	RowsReused int64
	// TouchedPerIter is the mean number of weight cells and biases the
	// Adam step moved per iteration (§3.1's s² fraction of NumParams): of
	// the local batch in a single-process run, of the merged batch in a
	// sharded one.
	TouchedPerIter float64
	// ExchangeNS is the nanoseconds the training loop spent blocked on
	// DeltaExchanger.Exchange — serialization, transport and the peer
	// barrier — included in Seconds. Zero for single-process runs. With
	// OverlapExchange it is only the barrier wait the next batch's
	// forward pass failed to hide.
	ExchangeNS int64
	// ExchangeHiddenNS is exchange time that ran concurrently with the
	// next batch's forward pass under OverlapExchange (zero otherwise) —
	// the communication the pipeline made invisible, the RebuildBuildNS
	// analog for the delta exchange.
	ExchangeHiddenNS int64
	// KernelForwards counts forward kernel executions by form across the
	// run, one count per (layer, element) pass: "scatter" for the
	// input-major first layer, "gather" for every other layer.
	KernelForwards map[string]int64
}

// Train runs minibatch training (Algorithm 1). Batch elements are
// processed by a persistent worker pool (§3.1): each element's forward and
// backward pass fills the record of its batch position, with sampling
// streams seeded by (TrainConfig.Seed, Config.Seed, step, position), and at
// the batch boundary every touched weight row is replayed from the records
// in element order by one owner and stepped (fold.go).
//
// Determinism: the trained bits do not depend on Threads — nor, for a
// sharded run, on the threads per rank or on OverlapExchange — because a
// scheduled table rebuild snapshots and publishes at batches the config
// fixes (Network.rebuildTick), however long its background build takes.
func (n *Network) Train(train, test []dataset.Example, tc TrainConfig) (*TrainResult, error) {
	return n.TrainContext(context.Background(), train, test, tc)
}

// TrainContext is Train with cooperative cancellation: ctx is checked
// between batches, and on cancellation training stops cleanly — worker
// goroutines drain, the partially trained network remains valid, and the
// result accumulated so far is returned alongside ctx.Err(). Callers that
// only care about completed runs can treat any non-nil error as failure;
// callers driving training from a serving control plane can keep the
// partial *TrainResult.
func (n *Network) TrainContext(ctx context.Context, train, test []dataset.Example, tc TrainConfig) (*TrainResult, error) {
	defer runtime.KeepAlive(n) // the weights may view a mapped file (see mapping)
	if len(train) == 0 {
		return nil, fmt.Errorf("core: empty training split")
	}
	if err := tc.validate(); err != nil {
		return nil, err
	}
	if err := n.checkSplit("training", train); err != nil {
		return nil, err
	}
	if err := n.checkSplit("test", test); err != nil {
		return nil, err
	}
	tc = tc.withDefaults(len(train))
	if sc, ok := tc.Exchanger.(ShardCounter); ok && sc.Shards() != tc.Shards {
		return nil, fmt.Errorf("core: TrainConfig.Shards = %d but the exchanger's group has %d: the merged Adam step would be mis-averaged", tc.Shards, sc.Shards())
	}
	ex := tc.Exchanger
	overlap := tc.OverlapExchange && ex != nil
	workers := tc.Threads
	n.allocTrainState()

	seed := tc.Seed ^ n.cfg.Seed
	states := make([]*elemState, workers)
	for w := range states {
		st, err := newElemState(n, seed, w)
		if err != nil {
			return nil, err
		}
		states[w] = st
	}
	n.ensureRecords(tc.BatchSize)

	// Persistent worker pool: every batch is announced to all workers
	// (one message per worker), and workers grab batch positions through a
	// shared atomic cursor so stragglers self-balance (§3.1: one thread
	// per batch element, private state, shared weights). Position k's
	// record keeps the element between the phases of a split step, so the
	// OverlapExchange pipeline's forward and backward may run on different
	// workers.
	type batchJob struct {
		idxs  []int
		done  *sync.WaitGroup
		phase trainPhase
		step  int64
	}
	jobs := make(chan batchJob, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := states[w]
			for job := range jobs {
				for {
					k := int(cursor.Add(1)) - 1
					if k >= len(job.idxs) {
						break
					}
					exm := &train[job.idxs[k]]
					rec := n.records[k]
					t0 := nowNano()
					if job.phase != phaseBackward {
						st.reseed(trainSeed(seed, job.step, k))
						rec.x = exm.Features
						n.forward(st, rec.layers, rec.x, exm.Labels, modeTrain)
					}
					if job.phase != phaseForward {
						st.lossSum += n.backwardElem(st, rec, exm.Labels)
						st.lossCount++
					}
					st.busyNS += nowNano() - t0
				}
				job.done.Done()
			}
		}(w)
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	order := rng.NewStream(tc.Seed, 0x0d3).Perm(len(train))
	evalIdx := evalSubset(test, tc.EvalSamples, tc.Seed)
	touchedStart := n.touchedWeights
	rebuildsStart := n.rebuilds
	stallStart, buildStart := n.rebuildStallNS, n.rebuildBuildNS
	rowsHashedStart := n.rowsHashed()

	res := &TrainResult{Curve: metrics.Curve{Name: "p@1"}}
	var trainNS int64
	pos := 0
	var done sync.WaitGroup

	evalNow := func() float64 {
		p1 := n.evalP1(test, evalIdx, states)
		pt := Point{
			Iter:    n.step,
			Seconds: float64(trainNS) / 1e9,
			Value:   p1,
			Loss:    drainLoss(states),
		}
		res.Curve.Add(pt)
		if tc.OnEval != nil {
			tc.OnEval(pt)
		}
		return p1
	}

	runPhase := func(phase trainPhase, batch []int) {
		cursor.Store(0)
		done.Add(workers)
		for w := 0; w < workers; w++ {
			jobs <- batchJob{idxs: batch, done: &done, phase: phase, step: n.step}
		}
		done.Wait()
	}

	var ctxErr error
	// wantStop marks a local stop condition (cancellation, target
	// accuracy, deadline) in a sharded run; it is carried to the peers by
	// the next exchange, and stopAll — any shard wanting to stop — breaks
	// every replica after the same applied batch.
	var wantStop, stopAll bool
	start := n.step

	// Overlap-mode exchange pipeline: launch fires the exchange for the
	// just-extracted delta on a background goroutine (capturing this
	// step's Adam alpha — the merged delta belongs to the step it was
	// extracted at, however late it is applied); settle is the barrier
	// that joins it, splits its wall-clock into blocked vs hidden time,
	// and applies the merged delta.
	invB := 1 / float32(tc.BatchSize*tc.Shards)
	var pend *pendingExchange
	launch := func(d *SparseDelta, stop bool) *pendingExchange {
		p := &pendingExchange{
			ch:    make(chan exchangeResult, 1),
			alpha: n.adam.Alpha(n.step + 1),
			step:  n.step,
		}
		run := func() {
			x0 := nowNano()
			merged, all, err := ex.Exchange(p.step, d, stop)
			p.ch <- exchangeResult{merged: merged, stopAll: all, err: err, durNS: nowNano() - x0}
		}
		if testOverlapSyncJoin {
			run()
		} else {
			go run()
			// Hand the CPU to the exchange goroutine so its deposit (and
			// a TCP exchanger's frame write) lands BEFORE the next
			// forward starts. On a saturated or single-core machine the
			// goroutine would otherwise not be scheduled until settle
			// blocks — serializing the exchange after the forward and
			// hiding nothing.
			runtime.Gosched()
		}
		return p
	}
	settle := func() (bool, error) {
		p := pend
		pend = nil
		b0 := nowNano()
		r := <-p.ch
		blocked := nowNano() - b0
		res.ExchangeNS += blocked
		if hidden := r.durNS - blocked; hidden > 0 {
			res.ExchangeHiddenNS += hidden
		}
		if r.err != nil {
			return false, fmt.Errorf("core: delta exchange at step %d: %w", p.step, r.err)
		}
		stepped, err := n.ApplyDelta(r.merged, p.alpha, invB, workers)
		if err != nil {
			return false, err
		}
		n.touchedWeights += stepped
		return r.stopAll, nil
	}

	for n.step-start < tc.Iterations {
		if err := ctx.Err(); err != nil {
			ctxErr = err
			if ex == nil {
				break
			}
			wantStop = true
		}
		if pos+tc.BatchSize > len(order) {
			reshuffle(order, tc.Seed+uint64(n.step))
			pos = 0
		}
		batch := order[pos : pos+tc.BatchSize]
		pos += tc.BatchSize

		t0 := nowNano()
		if overlap {
			// Pipelined step: the forward runs while the previous
			// batch's exchange is in flight (it reads no gradient state,
			// and no weights step until the barrier below), then the merged
			// delta lands before backward — which does read weights —
			// needs the replicas realigned.
			runPhase(phaseForward, batch)
			if pend != nil {
				var sErr error
				stopAll, sErr = settle()
				if sErr != nil {
					ctxErr = sErr
					trainNS += nowNano() - t0
					break
				}
				if stopAll {
					trainNS += nowNano() - t0
					break
				}
			}
			runPhase(phaseBackward, batch)
			d := n.ExtractDelta(n.deltaScratch, workers)
			n.deltaScratch = d
			pend = launch(d, wantStop)
		} else {
			alpha := n.adam.Alpha(n.step + 1)
			runPhase(phaseFused, batch)
			if ex == nil {
				n.applyAdamBatch(alpha, 1/float32(len(batch)), workers)
			} else {
				var exErr error
				stopAll, exErr = n.exchangeAndApply(ex, wantStop, alpha, len(batch), tc, workers, res)
				if exErr != nil {
					ctxErr = exErr
					break
				}
			}
		}
		n.step++
		n.rebuildTick(workers)
		trainNS += nowNano() - t0
		if stopAll {
			break
		}

		if tc.EvalEvery > 0 && (n.step-start)%tc.EvalEvery == 0 {
			// An overlapped exchange still in flight belongs to the step
			// being evaluated; join it first so the eval sees the same
			// weights a synchronous replica would.
			if pend != nil {
				s0 := nowNano()
				var sErr error
				stopAll, sErr = settle()
				trainNS += nowNano() - s0
				if sErr != nil {
					ctxErr = sErr
					break
				}
				if stopAll {
					break
				}
			}
			p1 := evalNow()
			if tc.TargetAcc > 0 && p1 >= tc.TargetAcc {
				if ex == nil {
					break
				}
				wantStop = true
			}
		}
		if tc.MaxSeconds > 0 && float64(trainNS)/1e9 >= tc.MaxSeconds {
			if ex == nil {
				break
			}
			wantStop = true
		}
	}

	// Join and apply any exchange still in flight (iterations exhausted,
	// or a break between launch and the next barrier): the group merged
	// that round on every replica, so skipping the apply would desync
	// this one's weights.
	if pend != nil {
		s0 := nowNano()
		if _, err := settle(); err != nil && ctxErr == nil {
			ctxErr = err
		}
		trainNS += nowNano() - s0
	}

	// A background shadow build may still be in flight when the loop
	// exits (cancellation, time budget, or a kick within its lag of the
	// end); wait for it and publish it early, so the network's tables
	// always reflect the last kicked rebuild and no builder goroutine
	// outlives the run. The wait is not charged to the training clock —
	// the loop is done competing with it.
	n.finishPendingRebuild()

	// Final evaluation unless the loop ended exactly on an eval. A
	// cancelled run skips it (the caller asked to stop, and evaluation
	// can be expensive), as does a config that opted out.
	if last := res.Curve.Last(); ctxErr == nil && !tc.SkipFinalEval &&
		(last.Iter != n.step || len(res.Curve.Points) == 0) {
		evalNow()
	}

	res.Iterations = n.step - start
	res.Seconds = float64(trainNS) / 1e9
	res.FinalAcc = res.Curve.Last().Value
	res.Rebuilds = n.rebuilds - rebuildsStart
	res.RebuildStallNS = n.rebuildStallNS - stallStart
	res.RebuildBuildNS = n.rebuildBuildNS - buildStart
	res.RowsRehashed = n.rowsHashed() - rowsHashedStart
	if res.Iterations > 0 {
		res.TouchedPerIter = float64(n.touchedWeights-touchedStart) / float64(res.Iterations)
	}
	res.MeanActive = meanActive(states, len(n.layers))
	res.Utilization = utilization(states, trainNS, workers)
	res.KernelForwards = n.kernelForwards(states)
	return res, ctxErr
}

// checkSplit reports the first example of a split the network cannot run:
// a bad input (checkFeatures) or a label outside [0, OutputDim).
func (n *Network) checkSplit(name string, split []dataset.Example) error {
	classes := n.OutputDim()
	for k := range split {
		ex := &split[k]
		if err := n.checkFeatures(ex.Features); err != nil {
			return fmt.Errorf("core: %s example %d: %w", name, k, err)
		}
		for _, lab := range ex.Labels {
			if lab < 0 || int(lab) >= classes {
				return fmt.Errorf("core: %s example %d: label %d out of range [0,%d)", name, k, lab, classes)
			}
		}
	}
	return nil
}

// kernelForwards counts the run's forward kernel executions from the
// workers' forward passes, resetting them: every pass runs the input-major
// first layer's scatter, when there is one, and every other layer's
// gather.
func (n *Network) kernelForwards(states []*elemState) map[string]int64 {
	var passes, scatter int64
	for _, st := range states {
		passes, st.passes = passes+st.passes, 0
	}
	if n.layers[0].inputMajor {
		scatter = passes
	}
	return map[string]int64{"scatter": scatter, "gather": passes*int64(len(n.layers)) - scatter}
}

// trainPhase selects what a worker does with a dispatched batch: the
// default fused forward+backward pass, or one half of the OverlapExchange
// pipeline's split step.
type trainPhase uint8

const (
	phaseFused trainPhase = iota
	phaseForward
	phaseBackward
)

// pendingExchange is one in-flight overlapped delta exchange: the
// background goroutine's result channel plus the step and Adam alpha the
// merged delta must be applied with.
type pendingExchange struct {
	ch    chan exchangeResult
	alpha float32
	step  int64
}

type exchangeResult struct {
	merged  *SparseDelta
	stopAll bool
	err     error
	durNS   int64 // wall-clock inside Exchange, for blocked-vs-hidden split
}

// testOverlapSyncJoin makes launch run the exchange inline instead of on
// a goroutine — the overlap pipeline with zero asynchrony. Tests flip it
// to pin that the background execution itself changes nothing.
var testOverlapSyncJoin bool

// exchangeAndApply is one sharded batch's update phase: extract the local
// records, exchange them for the group's merged delta, and fold the
// merged step averaged over the global batch (BatchSize*Shards). The
// returned stopAll reports whether any shard requested a coordinated stop
// this round.
func (n *Network) exchangeAndApply(ex DeltaExchanger, wantStop bool, alpha float32, batch int, tc TrainConfig, workers int, res *TrainResult) (bool, error) {
	d := n.ExtractDelta(n.deltaScratch, workers)
	n.deltaScratch = d
	x0 := nowNano()
	merged, stopAll, err := ex.Exchange(n.step, d, wantStop)
	res.ExchangeNS += nowNano() - x0
	if err != nil {
		return false, fmt.Errorf("core: delta exchange at step %d: %w", n.step, err)
	}
	stepped, err := n.ApplyDelta(merged, alpha, 1/float32(batch*tc.Shards), workers)
	if err != nil {
		return false, err
	}
	n.touchedWeights += stepped
	return stopAll, nil
}

// trainSeed derives the sampling seed of batch position k at step from
// the run's seed, so a retrieval draw does not depend on which worker ran
// the element.
func trainSeed(seed uint64, step int64, k int) uint64 {
	return elemSeed(seed^uint64(step)*workerSeedMix, k)
}

func reshuffle(order []int, seed uint64) {
	r := rng.NewStream(seed, 0x0d4)
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
}

// evalSubset picks a fixed random evaluation subset of the test split.
func evalSubset(test []dataset.Example, samples int, seed uint64) []int {
	if len(test) == 0 {
		return nil
	}
	if samples <= 0 {
		samples = 1024
	}
	if samples >= len(test) {
		idx := make([]int, len(test))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	return rng.NewStream(seed, 0xe7a1).SampleK(len(test), samples)
}

func drainLoss(states []*elemState) float64 {
	var sum float64
	var count int64
	for _, st := range states {
		sum += st.lossSum
		count += st.lossCount
		st.lossSum, st.lossCount = 0, 0
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

func meanActive(states []*elemState, layers int) []float64 {
	out := make([]float64, layers)
	for li := 0; li < layers; li++ {
		var sum, count int64
		for _, st := range states {
			sum += st.activeSum[li]
			count += st.activeCount[li]
		}
		if count > 0 {
			out[li] = float64(sum) / float64(count)
		}
	}
	return out
}

func utilization(states []*elemState, wallNS int64, workers int) float64 {
	if wallNS <= 0 || workers == 0 {
		return 0
	}
	var busy int64
	for _, st := range states {
		busy += st.busyNS
		st.busyNS = 0
	}
	u := float64(busy) / (float64(wallNS) * float64(workers))
	if u > 1 {
		u = 1
	}
	return u
}

// Now returns the current time; exposed so experiments share one clock.
func Now() time.Time { return time.Now() }
