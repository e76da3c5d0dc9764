package harness

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hashtable"
	"repro/internal/sampling"
)

func init() {
	register(Experiment{
		ID:    "dist-comm",
		Title: "Distributed SLIDE communication volume (§6 future work)",
		Run:   runDistComm,
	})
	register(Experiment{
		ID:    "abl-rebuild",
		Title: "Hash table rebuild schedule ablation (§4.2)",
		Run:   runAblRebuild,
	})
}

// runDistComm quantifies the paper's closing claim — "a distributed
// implementation of SLIDE would be very appealing because the
// communication costs are minimal due to sparse gradients" — with the
// real pipeline: training runs through a single-shard loopback exchanger
// (bit-identical to a plain run), so every batch's SparseDelta passes
// through the dist codec and its encoded size is *measured*. The old
// 8-bytes-per-cell estimate is kept alongside as validation, against the
// dense full-gradient synchronization (4 bytes per parameter).
func runDistComm(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	sc, err := ScaleByName(opts.Scale)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "dist-comm", Title: "Per-iteration gradient communication volume"}
	rep.AddNote("measured = encoded SparseDelta bytes through the dist codec (varint ids + values in the negotiated format); estimate = touched cells x 8 bytes (index+fp32 value); dense = all parameters x 4 bytes; topk rows ship the largest-|g| 10%% with error feedback, so touched cells/iter counts post-selection cells")
	tab := Table{
		Title: "gradient payload per iteration",
		Header: []string{"dataset", "compress", "params", "touched cells/iter", "measured codec", "8 B/cell estimate",
			"measured/estimate", "batch-sync dense", "reduction", "per-element async", "async reduction"},
	}
	formats := []struct {
		name     string
		compress core.DeltaCompression
		frac     float64
	}{
		{"fp32", core.CompressFP32, 0},
		{"bf16", core.CompressBF16, 0},
		{"topk:0.10", core.CompressTopK, 0.10},
	}
	for _, mk := range []func(Options, ScaleSpec) (*workload, error){deliciousWorkload, amazonWorkload} {
		w, err := mk(opts, sc)
		if err != nil {
			return nil, err
		}
		for _, f := range formats {
			cfg := w.slideConfig(opts, sampling.KindVanilla, hashtable.PolicyReservoir)
			tc := w.trainConfig(opts, opts.Threads)
			tc.Iterations = 50
			tc.EvalEvery = 0
			tc.Compress = f.compress
			tc.TopKFrac = f.frac
			opts.logf("dist-comm: %s %s", w.ds.Name, f.name)
			run, err := dist.TrainSharded(context.Background(), cfg, w.ds.Train, w.ds.Test, tc, 1)
			if err != nil {
				return nil, err
			}
			res := run.Results[0]
			params := run.Nets[0].NumParams()
			measured := run.Stats[0].BytesOutPerRound()
			estBytes := res.TouchedPerIter * 8
			denseBytes := float64(params) * 4
			// The paper's asynchronous design ships each element's update as
			// it happens: active output neurons x (hidden fan-in + bias)
			// cells, independent of how the batch's active sets union.
			perElem := res.MeanActive[len(res.MeanActive)-1] * float64(128+1) * 8
			tab.Rows = append(tab.Rows, []string{
				w.ds.Name,
				f.name,
				fmt.Sprintf("%d", params),
				fmtF(res.TouchedPerIter, 0),
				humanBytes(measured),
				humanBytes(estBytes),
				fmtF(measured/estBytes, 2),
				humanBytes(denseBytes),
				fmtF(denseBytes/measured, 1) + "x",
				humanBytes(perElem),
				fmtF(denseBytes/perElem, 0) + "x",
			})
		}
	}
	rep.Tables = append(rep.Tables, tab)
	rep.AddNote("batch-synchronous exchange ships the union of the batch's touched cells, which saturates for wide batches (the varint codec beating the 8 B/cell estimate notwithstanding); small per-shard batches or the paper's per-element pushes (last two columns) keep the payload at activeNeurons x fanIn cells — the regime behind the §6 claim, measured end to end by the benchmark's train_2shard workload")
	return rep, nil
}

// runAblRebuild compares the §4.2 exponential-decay rebuild schedule
// against fixed-period rebuilds and against never rebuilding — the
// design-choice ablation DESIGN.md calls out.
func runAblRebuild(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	sc, err := ScaleByName(opts.Scale)
	if err != nil {
		return nil, err
	}
	w, err := deliciousWorkload(opts, sc)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "abl-rebuild", Title: "Rebuild schedule ablation"}
	tab := Table{
		Title:  "schedule comparison",
		Header: []string{"schedule", "rebuilds", "final P@1", "best P@1", "seconds"},
	}
	type schedule struct {
		name   string
		n0     int
		lambda float64
	}
	for _, s := range []schedule{
		{"exponential (N0=50, λ=0.1)", 50, 0.1},
		{"fixed period 50", 50, 1e-9},
		{"never", 1 << 30, 1},
	} {
		cfg := w.slideConfig(opts, sampling.KindVanilla, hashtable.PolicyReservoir)
		cfg.RebuildN0 = s.n0
		cfg.RebuildLambda = s.lambda
		net, err := core.NewNetwork(cfg)
		if err != nil {
			return nil, err
		}
		opts.logf("abl-rebuild: %s", s.name)
		res, err := net.Train(w.ds.Train, w.ds.Test, w.trainConfig(opts, opts.Threads))
		if err != nil {
			return nil, err
		}
		_, iterS := curveSeries(s.name, res.Curve.Points)
		rep.Series = append(rep.Series, iterS)
		tab.Rows = append(tab.Rows, []string{
			s.name, fmt.Sprintf("%d", res.Rebuilds),
			fmtF(res.FinalAcc, 3), fmtF(res.Curve.Best(), 3), fmtF(res.Seconds, 2),
		})
	}
	rep.Tables = append(rep.Tables, tab)
	rep.AddNote("§4.2's intuition: early gradients are large (tables stale quickly), late gradients small (rebuilds can thin out); 'never' keeps sampling from initial weights")
	return rep, nil
}

func humanBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmtF(b/(1<<30), 2) + " GiB"
	case b >= 1<<20:
		return fmtF(b/(1<<20), 2) + " MiB"
	case b >= 1<<10:
		return fmtF(b/(1<<10), 2) + " KiB"
	default:
		return fmtF(b, 0) + " B"
	}
}
