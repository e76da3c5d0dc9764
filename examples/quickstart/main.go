// Quickstart: train a SLIDE network on a small synthetic
// extreme-classification task and evaluate precision@1 / precision@5.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/dataset"
	"repro/metrics"
)

func main() {
	// A 1% slice of the Delicious-200K profile: ~2K classes, ~7.8K
	// features, sparse inputs with planted label structure.
	ds, err := dataset.Generate(dataset.Delicious200K(0.01, 42))
	if err != nil {
		log.Fatal(err)
	}
	st := ds.Stats()
	fmt.Printf("dataset %s: %d features (%.3f%% dense), %d classes, %d train / %d test\n",
		st.Name, st.FeatureDim, st.FeatureSparsity*100, st.LabelDim, st.TrainSize, st.TestSize)

	// The paper's architecture: one 128-unit hidden layer, LSH tables on
	// the wide softmax output layer (Simhash, K meta-hash bits, L
	// tables), vanilla sampling with a ~5% active-neuron budget.
	net, err := slide.New(slide.Config{
		InputDim: ds.InputDim,
		Seed:     42,
		Layers: []slide.LayerConfig{
			{Size: 128, Activation: slide.ActReLU},
			{
				Size:       ds.NumClasses,
				Activation: slide.ActSoftmax,
				Sampled:    true,
				Hash:       slide.HashSimhash,
				K:          6,
				L:          20,
				Strategy:   slide.StrategyVanilla,
				Beta:       ds.NumClasses / 20,
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d parameters, output layer sampled via %d hash tables\n",
		net.NumParams(), net.Layer(1).Tables().L())

	res, err := net.Train(ds.Train, ds.Test, slide.TrainConfig{
		Epochs:    4,
		EvalEvery: 40,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d iterations in %.1fs; mean active output neurons %.0f of %d (%.1f%%)\n",
		res.Iterations, res.Seconds, res.MeanActive[1], ds.NumClasses,
		100*res.MeanActive[1]/float64(ds.NumClasses))

	eval, err := net.Evaluate(ds.Test, 2000, 0, 1, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P@1 = %.3f   P@5 = %.3f   (over %d test examples)\n", eval.P1, eval.PAtK[5], eval.N)

	// Sub-linear inference: classify one example using only the neurons
	// retrieved from the hash tables.
	ids, scores, err := net.PredictSampled(ds.Test[0].Features, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sampled top-3 prediction for test[0]: ids=%v scores=%v (true=%v)\n",
		ids, scores, ds.Test[0].Labels)

	// Serving-style inference: a Predictor pools per-worker state across
	// calls and fans batches out over all cores — the session type
	// slide-serve is built on.
	pred, err := net.NewPredictor()
	if err != nil {
		log.Fatal(err)
	}
	xs := make([]slide.Vector, 0, 64)
	for i := 0; i < 64 && i < len(ds.Test); i++ {
		xs = append(xs, ds.Test[i].Features)
	}
	var out slide.BatchResults
	if err := pred.PredictBatchInto(context.Background(), xs, 1, true, &out); err != nil {
		log.Fatal(err)
	}
	var hits float64
	for i := range out.IDs {
		hits += metrics.PrecisionAt1(out.Scores[i], out.IDs[i], ds.Test[i].Labels)
	}
	fmt.Printf("batched sampled inference over %d examples: P@1 = %.3f\n",
		len(xs), hits/float64(len(xs)))
}
