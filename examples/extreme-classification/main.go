// Extreme classification: the paper's head-to-head comparison on one
// workload — SLIDE's adaptive LSH sampling vs the dense full-softmax
// baseline (the TF-CPU analog) — printed as an accuracy-vs-time race
// (Fig. 5's CPU curves).
//
// Run with:
//
//	go run ./examples/extreme-classification            # small scale
//	go run ./examples/extreme-classification -scale 0.05
package main

import (
	"flag"
	"fmt"
	"log"

	"repro"
	"repro/baselines"
	"repro/dataset"
	"repro/metrics"
)

func main() {
	scale := flag.Float64("scale", 0.02, "fraction of the Amazon-670K dimensions")
	epochs := flag.Int("epochs", 3, "training epochs")
	flag.Parse()

	ds, err := dataset.Generate(dataset.Amazon670K(*scale, 7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s — %d classes, %d features, %d train examples\n",
		ds.Name, ds.NumClasses, ds.InputDim, len(ds.Train))

	beta := ds.NumClasses / 40
	net, err := slide.New(slide.Config{
		InputDim: ds.InputDim,
		Seed:     7,
		Layers: []slide.LayerConfig{
			{Size: 128, Activation: slide.ActReLU},
			{
				Size: ds.NumClasses, Activation: slide.ActSoftmax,
				Sampled: true, Hash: slide.HashDWTA, K: 6, L: 50, RangePow: 10,
				Strategy: slide.StrategyVanilla, Beta: beta,
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	report := func(name string) func(metrics.Point) {
		return func(p metrics.Point) {
			fmt.Printf("  [%s] iter %5d  t=%7.2fs  P@1=%.3f\n", name, p.Iter, p.Seconds, p.Value)
		}
	}

	fmt.Println("training SLIDE (DWTA K=6, L=50)...")
	sres, err := net.Train(ds.Train, ds.Test, slide.TrainConfig{
		Epochs: *epochs, BatchSize: 256, EvalEvery: 50, EvalSamples: 1024,
		OnEval: report("slide"),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("training dense full-softmax baseline (TF-CPU analog)...")
	dnet, err := baselines.NewDense(baselines.DenseConfig{
		InputDim: ds.InputDim, Hidden: []int{128}, Classes: ds.NumClasses, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	dres, err := dnet.Train(ds.Train, ds.Test, baselines.DenseTrainConfig{
		Epochs: *epochs, BatchSize: 256, EvalEvery: 50, EvalSamples: 1024,
		OnEval: report("dense"),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("SLIDE:      P@1=%.3f in %6.1fs (%.1f%% neurons active)\n",
		sres.FinalAcc, sres.Seconds, 100*sres.MeanActive[1]/float64(ds.NumClasses))
	fmt.Printf("dense CPU:  P@1=%.3f in %6.1fs (full softmax)\n", dres.FinalAcc, dres.Seconds)
	target := 0.9 * min(sres.Curve.Best(), dres.Curve.Best())
	ts, okS := sres.Curve.TimeToValue(target)
	tc, okC := dres.Curve.TimeToValue(target)
	if okS && okC {
		fmt.Printf("time to P@1=%.3f: SLIDE %.1fs vs dense %.1fs — %.1fx\n", target, ts, tc, tc/ts)
	}
}
