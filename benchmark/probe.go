package main

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dense"
	"repro/internal/dist"
	"repro/internal/hashtable"
	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/sampling"
	"repro/internal/vecmath"
)

// probe measures single layers from outside, through their exported
// functions, on the network and data a workload just ran. Train exposes no
// stage hooks, so stage times come from a replay: the same examples pushed
// stage by stage through the calls the trainer makes.
type probe struct {
	net     *core.Network
	ds      *dataset.Dataset
	threads int
	tr      *tracer
	r       *report
}

// replayExamples is how many training examples the replay pushes through
// each stage.
const replayExamples = 2048

// timed runs f as one family span covering count operations and returns
// its nanoseconds per operation.
func (p *probe) timed(name string, parent int, count int64, f func()) float64 {
	t0 := time.Now()
	f()
	t1 := time.Now()
	p.tr.add(name, parent, t0, t1, count)
	return ratio(float64(t1.Sub(t0).Nanoseconds()), float64(count))
}

// layers replays one batch's stages on the sampled output layer and reports
// how much of the measured batch time they explain. batchMS is the measured
// time of a batch of batch examples on p.threads workers; backward is false
// for a batch that is served, not trained on.
func (p *probe) layers(batchMS float64, batch int, backward bool) {
	cfg := p.net.Config()
	l0, l1 := p.net.Layer(0), p.net.Layer(p.net.NumLayers()-1)
	lc := cfg.Layers[len(cfg.Layers)-1]
	in, out := l1.In(), l1.Out()
	root := p.tr.add("replay", -1, time.Now(), time.Now(), 0)

	// lsh and hashtable, rebuild side: hash every weight row, build a
	// table set from the codes. The family and tables are this probe's
	// own, built with the layer's parameters.
	fam, err := lsh.New(lc.Hash, lsh.Params{
		Dim: in, K: lc.K, L: lc.L, Seed: cfg.Seed,
		SimhashDensity: lc.SimhashDensity, BinSize: lc.BinSize, TopK: lc.TopK,
	})
	if err != nil {
		p.r.note("replay skipped: %v", err)
		return
	}
	nf := fam.NumFuncs()
	block := make([]float32, out*in)
	rows := make([][]float32, out)
	bias := make([]float32, out)
	for j := range out {
		rows[j] = block[j*in : (j+1)*in]
		copy(rows[j], l1.Weights(j))
		bias[j] = l1.Bias(j)
	}
	codes := make([]uint32, out*nf)
	hashNS := p.timed("lsh.hash_rows", root, int64(out), func() {
		var wg sync.WaitGroup
		for w := range p.threads {
			lo, hi := out*w/p.threads, out*(w+1)/p.threads
			wg.Add(1)
			go func() {
				defer wg.Done()
				fam.HashDenseRows(block[lo*in:hi*in], hi-lo, codes[lo*nf:hi*nf])
			}()
		}
		wg.Wait()
	})
	p.r.set("lsh.rebuild_hash_rows_per_s", ratio(1e9, hashNS))
	table, err := hashtable.New(hashtable.Config{
		K: lc.K, L: lc.L, CodeBits: fam.CodeBits(), RangePow: lc.RangePow,
		BucketSize: lc.BucketSize, Policy: lc.Policy, Seed: cfg.Seed,
	})
	if err != nil {
		p.r.note("replay skipped: %v", err)
		return
	}
	buildNS := p.timed("hashtable.build", root, int64(out), func() { table.BuildParallel(out, codes, nf, p.threads) })
	p.r.set("hashtable.build_rows_per_s", ratio(1e9, buildNS))
	st := table.Stats()
	p.r.set("hashtable.bucket_fill_mean", st.AvgBucketLen)
	p.r.set("hashtable.empty_bucket_share", 1-ratio(float64(st.NonEmpty), float64(st.Tables*st.BucketsPer)))

	// The forward stages, one example at a time as a worker runs them.
	mirror := kernels.NewMirror(l0.In(), l0.Out())
	rows0 := make([][]float32, l0.Out())
	bias0 := make([]float32, l0.Out())
	for j := range rows0 {
		rows0[j], bias0[j] = l0.Weights(j), l0.Bias(j)
	}
	mirror.Rebuild(rows0)
	strat, err := sampling.New(sampling.Params{Kind: lc.Strategy, Beta: lc.Beta, MinCount: lc.MinCount, Universe: out, Seed: cfg.Seed}, out)
	if err != nil {
		p.r.note("replay skipped: %v", err)
		return
	}
	n := replayExamples
	examples := make([]dataset.Example, n)
	for i := range examples {
		examples[i] = p.ds.Train[i%len(p.ds.Train)]
	}
	hid := make([][]float32, n)
	var nnz int64
	for i, ex := range examples {
		hid[i] = make([]float32, in)
		nnz += int64(len(ex.Features.Idx))
	}
	scatterNS := p.timed("kernels.scatter_forward", root, int64(n), func() {
		for i, ex := range examples {
			kernels.ScatterForward(hid[i], mirror, bias0, ex.Features.Idx, ex.Features.Val, true)
		}
	})
	p.r.set("kernels.scatter_ns_per_nnz", scatterNS*float64(n)/float64(nnz))

	query := make([][]uint32, n)
	for i := range query {
		query[i] = make([]uint32, nf)
	}
	queryNS := p.timed("lsh.hash_dense", root, int64(n), func() {
		for i := range hid {
			fam.HashDense(hid[i], query[i])
		}
	})
	p.r.set("lsh.query_hash_ns", queryNS)

	active := make([][]int32, n)
	var buf []uint32
	var retrieved, short int64
	sampleNS := p.timed("sampling.sample", root, int64(n), func() {
		for i := range query {
			buf = strat.Sample(buf[:0], table, query[i])
			ids := make([]int32, len(buf))
			for k, id := range buf {
				ids[k] = int32(id)
			}
			active[i] = ids
		}
	})
	for _, ids := range active {
		retrieved += int64(len(ids))
		if len(ids) < lc.Beta {
			short++
		}
	}
	p.r.set("sampling.sample_ns", sampleNS)
	p.r.set("sampling.active_mean", float64(retrieved)/float64(n))
	p.r.set("sampling.short_share", float64(short)/float64(n))
	p.labelRecall(fam, table, strat, mirror, bias0, in)

	// Training forces the true labels into the active set; gather, softmax
	// and the backward stages run over that set, rows in ascending order.
	var activeRows int64
	for i, ex := range examples {
		if backward {
			active[i] = append(active[i], ex.Labels...)
		}
		slices.Sort(active[i])
		active[i] = slices.Compact(active[i])
		activeRows += int64(len(active[i]))
	}
	acts := make([][]float32, n)
	for i := range acts {
		acts[i] = make([]float32, len(active[i]))
	}
	gatherNS := p.timed("kernels.gather_forward", root, int64(n), func() {
		for i := range acts {
			kernels.GatherForward(acts[i], active[i], rows, bias, nil, hid[i], true, false)
		}
	})
	p.r.set("kernels.gather_ns_per_row", gatherNS*float64(n)/float64(activeRows))
	softmaxNS := p.timed("vecmath.softmax", root, int64(n), func() {
		for i := range acts {
			vecmath.Softmax(acts[i])
		}
	})
	forwardNS := scatterNS + queryNS + sampleNS + gatherNS + softmaxNS
	p.vecmath(root, rows, hid[0])
	if !backward {
		p.r.set("replay.explained_share", ratio(forwardNS*float64(batch)/float64(p.threads), batchMS*1e6))
		return
	}
	// Backward: per active row one fused outer-product accumulate, then
	// one Adam step over the accumulated row. Gradient, moments and the
	// stepped weights are scratch, so the model is left as trained.
	maxActive := 0
	for _, ids := range active {
		maxActive = max(maxActive, len(ids))
	}
	grad := make([]float32, maxActive*in)
	acc := make([]float32, in)
	outerNS := p.timed("vecmath.outer_acc", root, int64(n), func() {
		for i, ids := range active {
			for k, id := range ids {
				vecmath.OuterAcc(acts[i][k], hid[i], rows[id], grad[k*in:(k+1)*in], acc)
			}
		}
	})
	adam := cfg.Adam
	m, v := make([]float32, len(block)), make([]float32, len(block))
	stepNS := p.timed("optim.step_row", root, int64(n), func() {
		for _, ids := range active {
			for k, id := range ids {
				lo := int(id) * in
				adam.StepRow(block[lo:lo+in], m[lo:lo+in], v[lo:lo+in], grad[k*in:(k+1)*in], adam.Alpha(1))
			}
		}
	})
	p.r.set("optim.adam_row_ns", stepNS*float64(n)/float64(activeRows))

	// One batch's stages, spread over the workers, against the measured
	// batch. What is left is the trainer's own: layer-0 backward, delta
	// extract and apply, scheduling, rebuilds.
	perExample := forwardNS + outerNS + stepNS
	p.r.set("replay.explained_share", ratio(perExample*float64(batch)/float64(p.threads), batchMS*1e6))
}

// vecmath times the two row kernels alone, on hidden-width rows walked in
// order. Bytes are computed from the sizes (one row and one input read per
// dot), not measured.
func (p *probe) vecmath(root int, rows [][]float32, x []float32) {
	const reps = 1 << 16
	out, in := len(rows), len(x)
	var sink float32
	dotNS := p.timed("vecmath.dot_bias_relu", root, reps, func() {
		for i := range reps {
			sink += vecmath.DotBiasReLU(0, rows[i%out], x)
		}
	})
	axpyNS := p.timed("vecmath.axpy", root, reps, func() {
		for i := range reps {
			vecmath.Axpy(1e-9, x, rows[i%out])
		}
	})
	if sink != sink {
		p.r.note("vecmath dot sink is NaN")
	}
	p.r.set("vecmath.dot128_ns", dotNS)
	p.r.set("vecmath.axpy128_ns", axpyNS)
	p.r.set("vecmath.computed_gb_per_s", ratio(float64(2*in*4), dotNS))
}

// labelRecall is the share of held-out examples' true labels the sampler
// retrieves on its own, without the label forcing training adds: useful
// retrievals over attempted.
func (p *probe) labelRecall(fam lsh.Family, table *hashtable.Table, strat sampling.Strategy, mirror *kernels.Mirror, bias0 []float32, in int) {
	hid := make([]float32, in)
	q := make([]uint32, fam.NumFuncs())
	var buf []uint32
	var hit, total int
	for _, ex := range p.ds.Test[:min(len(p.ds.Test), 1024)] {
		kernels.ScatterForward(hid, mirror, bias0, ex.Features.Idx, ex.Features.Val, true)
		fam.HashDense(hid, q)
		buf = strat.Sample(buf[:0], table, q)
		for _, lab := range ex.Labels {
			total++
			if slices.Contains(buf, uint32(lab)) {
				hit++
			}
		}
	}
	p.r.set("sampling.label_recall", ratio(float64(hit), float64(total)))
}

// network times the monolithic calls a trained network offers: a full
// table rebuild, evaluation, single-example prediction, and the model file
// round trip.
func (p *probe) network() {
	p.r.set("core.rebuild_tables_s", p.timed("core.rebuild_tables", -1, 1, func() { p.net.RebuildTables(p.threads) })/1e9)

	test := p.ds.Test[:min(len(p.ds.Test), 256)]
	evalNS := p.timed("core.evaluate", -1, int64(len(test)), func() {
		if _, err := p.net.Evaluate(test, 0, p.threads); err != nil {
			p.r.note("evaluate: %v", err)
		}
	})
	p.r.set("core.eval_examples_per_s", ratio(1e9, evalNS))
	exactUS, sampledUS, err := predictCost(p.net, test)
	if err != nil {
		p.r.note("predict: %v", err)
	}
	p.r.set("core.predict_exact_us", exactUS)
	p.r.set("core.predict_sampled_us", sampledUS)

	var file bytes.Buffer
	saveNS := p.timed("core.save_model", -1, 1, func() {
		if err := p.net.SaveModel(&file); err != nil {
			p.r.note("save model: %v", err)
		}
	})
	p.r.set("core.model_bytes", float64(file.Len()))
	p.r.set("core.save_model_s", saveNS/1e9)
	loadNS := p.timed("core.load_model", -1, 1, func() {
		if _, err := core.LoadModel(&file); err != nil {
			p.r.note("load model: %v", err)
		}
	})
	p.r.set("core.load_model_s", loadNS/1e9)
}

// predictCost is the median single-threaded cost, in microseconds, of one
// exact and one sampled top-5 prediction over the keys.
func predictCost(net *core.Network, keys []dataset.Example) (exactUS, sampledUS float64, err error) {
	pred, err := net.NewPredictor()
	if err != nil {
		return 0, 0, err
	}
	ids, scores := make([]int32, 0, 5), make([]float32, 0, 5)
	cost := func(sampled bool) (float64, error) {
		var us []float64
		for _, ex := range keys {
			t0 := time.Now()
			if _, _, err := pred.TopKWithScoresInto(context.Background(), ex.Features, 5, sampled, ids, scores); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		return median(us), nil
	}
	if exactUS, err = cost(false); err != nil {
		return 0, 0, err
	}
	sampledUS, err = cost(true)
	return exactUS, sampledUS, err
}

// captureExchanger is a one-shard loopback: it echoes each batch's delta
// back, as dist.Mesh does with one shard, and keeps a copy.
type captureExchanger struct{ deltas []*core.SparseDelta }

func (c *captureExchanger) Exchange(_ int64, local *core.SparseDelta, _ bool) (*core.SparseDelta, bool, error) {
	c.deltas = append(c.deltas, local.Clone())
	return local, false, nil
}

// deltas trains a few more batches through a capturing loopback and times
// what the sharded path does to a batch's delta: encode, decode, merge,
// apply. The batches come after every other measurement, since they step
// the weights.
func (p *probe) deltas(s trainSpec, o options) error {
	var capture captureExchanger
	tc := core.TrainConfig{
		BatchSize: s.batch, Iterations: 4, Threads: s.threads, Seed: o.seed + 1,
		Shards: 1, Exchanger: &capture, SkipFinalEval: true,
	}
	if _, err := p.net.Train(p.ds.Train, nil, tc); err != nil {
		return err
	}
	codec := dist.NewCodec(p.net)
	var cells int64
	for _, d := range capture.deltas {
		cells += d.Cells()
	}
	var frames [][]byte
	var err error
	encodeNS := p.timed("dist.encode", -1, cells, func() {
		for _, d := range capture.deltas {
			var frame []byte
			if frame, err = codec.AppendDelta(nil, d); err != nil {
				return
			}
			frames = append(frames, frame)
		}
	})
	if err != nil {
		return err
	}
	decodeNS := p.timed("dist.decode", -1, cells, func() {
		var dst *core.SparseDelta
		for _, f := range frames {
			if dst, err = codec.DecodeDelta(dst, f); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	// Merging a delta with the next one is the two-rank merge: both parts
	// come from the same model and batch size, on different examples.
	var mergeCells int64
	for i := 1; i < len(capture.deltas); i++ {
		mergeCells += capture.deltas[i-1].Cells() + capture.deltas[i].Cells()
	}
	mergeNS := p.timed("core.merge_deltas", -1, mergeCells, func() {
		var dst *core.SparseDelta
		for i := 1; i < len(capture.deltas); i++ {
			if dst, err = core.MergeDeltas(dst, capture.deltas[i-1:i+1]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	alpha := p.net.Config().Adam.Alpha(p.net.Step() + 1)
	applyNS := p.timed("core.apply_delta", -1, cells, func() {
		for _, d := range capture.deltas {
			if _, err = p.net.ApplyDelta(d, alpha, 1/float32(s.batch), s.threads); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	p.r.set("dist.encode_ns_per_cell", encodeNS)
	p.r.set("dist.decode_ns_per_cell", decodeNS)
	p.r.set("dist.merge_ns_per_cell", mergeNS)
	p.r.set("core.apply_delta_ns_per_cell", applyNS)
	return nil
}

// dense runs the full-computation comparator on the workload's data and
// threads. Reported, never gated: a shared-kernel speed-up raises both
// sides of the ratio.
func (p *probe) dense(s trainSpec, o options, slidePerS float64) error {
	net, err := dense.New(dense.Config{
		InputDim: p.ds.InputDim, Hidden: []int{hiddenWidth}, Classes: p.ds.NumClasses,
		Seed: o.seed, Adam: p.net.Config().Adam,
	})
	if err != nil {
		return err
	}
	const iterations = 20
	var res *dense.TrainResult
	p.tr.do("dense.train", -1, func() {
		// A single evaluation example keeps dense.Train's closing
		// evaluation off the clock it does not own anyway.
		res, err = net.Train(p.ds.Train, p.ds.Test, dense.TrainConfig{
			BatchSize: s.batch * s.shards, Iterations: iterations, Threads: p.threads, EvalSamples: 1, Seed: o.seed,
		})
	})
	if err != nil {
		return err
	}
	perS := float64(res.Iterations) * float64(s.batch*s.shards) / res.Seconds
	p.r.set("dense.examples_per_s", perS)
	p.r.set("dense.speedup", ratio(slidePerS, perS))
	return nil
}

// scaling trains the sharded workload's task in one process, on the same
// cores, for long enough to read its throughput: the base of
// dist.scaling_efficiency.
func (p *probe) scaling(s trainSpec, o options, shardedPerS float64) error {
	net, err := core.NewNetwork(p.net.Config())
	if err != nil {
		return err
	}
	var res *core.TrainResult
	p.tr.do("core.train_single", -1, func() {
		res, err = net.Train(p.ds.Train, nil, core.TrainConfig{
			BatchSize: s.batch * s.shards, Iterations: min(s.iterations, 94), Threads: p.threads,
			Seed: o.seed, SkipFinalEval: true,
		})
	})
	if err != nil {
		return err
	}
	single := float64(res.Iterations) * float64(s.batch*s.shards) / res.Seconds
	p.r.set("dist.scaling_efficiency", ratio(shardedPerS, single))
	return nil
}
