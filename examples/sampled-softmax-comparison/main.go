// Sampled softmax comparison (the paper's §5.1 / Fig. 7): SLIDE's
// input-adaptive LSH sampling against the static uniform candidate
// sampling of TensorFlow's sampled softmax, at a matched candidate
// budget. The paper finds the static sampler saturating at lower
// accuracy. On this repository's synthetic Delicious-200K@0.01 data it
// does not: this program prints best P@1 0.201 (SLIDE) against 0.202
// (uniform) and final 0.162 against 0.175. The generator draws each
// class's prototype independently over the features, so a class has no
// near neighbour for an adaptive sampler to find; ROADMAP item 32 tracks
// a profile with confusable classes.
//
// Run with:
//
//	go run ./examples/sampled-softmax-comparison
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/baselines"
	"repro/dataset"
)

func main() {
	ds, err := dataset.Generate(dataset.Delicious200K(0.01, 21))
	if err != nil {
		log.Fatal(err)
	}
	budget := ds.NumClasses / 20
	fmt.Printf("workload: %s — %d classes; candidate budget %d per example for both systems\n",
		ds.Name, ds.NumClasses, budget)

	net, err := slide.New(slide.Config{
		InputDim: ds.InputDim,
		Seed:     21,
		Layers: []slide.LayerConfig{
			{Size: 128, Activation: slide.ActReLU},
			{
				Size: ds.NumClasses, Activation: slide.ActSoftmax,
				Sampled: true, Hash: slide.HashSimhash, K: 6, L: 20,
				Strategy: slide.StrategyVanilla, Beta: budget,
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training SLIDE (adaptive LSH candidates)...")
	sres, err := net.Train(ds.Train, ds.Test, slide.TrainConfig{Epochs: 5, EvalEvery: 40})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("training sampled softmax (static uniform candidates)...")
	ssmRes, err := baselines.TrainSampledSoftmax(baselines.SampledSoftmaxConfig{
		InputDim: ds.InputDim, Hidden: []int{128}, Classes: ds.NumClasses,
		Samples: budget, Seed: 21,
	}, ds.Train, ds.Test, slide.TrainConfig{Epochs: 5, EvalEvery: 40})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\niteration-wise accuracy (identical candidate budget):")
	fmt.Printf("%-12s %-14s %-14s\n", "iteration", "slide P@1", "sampled-softmax P@1")
	for i, p := range sres.Curve.Points {
		var ssmV float64
		if i < len(ssmRes.Curve.Points) {
			ssmV = ssmRes.Curve.Points[i].Value
		}
		fmt.Printf("%-12d %-14.3f %-14.3f\n", p.Iter, p.Value, ssmV)
	}
	fmt.Printf("\nfinal: SLIDE %.3f vs sampled softmax %.3f (best: %.3f vs %.3f)\n",
		sres.FinalAcc, ssmRes.FinalAcc, sres.Curve.Best(), ssmRes.Curve.Best())
}
