package slide_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro"
	"repro/internal/dataset"
)

// TestPublicAPIEndToEnd exercises the facade exactly as the README's
// quickstart does: generate data, build, train, evaluate, predict.
func TestPublicAPIEndToEnd(t *testing.T) {
	ds, err := dataset.Generate(dataset.Delicious200K(0.005, 42))
	if err != nil {
		t.Fatal(err)
	}
	net, err := slide.New(slide.Config{
		InputDim: ds.InputDim,
		Seed:     42,
		Adam:     slide.NewAdam(0.001),
		Layers: []slide.LayerConfig{
			{Size: 64, Activation: slide.ActReLU},
			{
				Size: ds.NumClasses, Activation: slide.ActSoftmax,
				Sampled: true, Hash: slide.HashSimhash, K: 5, L: 16,
				Policy: slide.PolicyReservoir, Strategy: slide.StrategyVanilla,
				Beta: ds.NumClasses / 16,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Train(ds.Train, ds.Test, slide.TrainConfig{Epochs: 3, EvalEvery: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc <= 2.0/float64(ds.NumClasses) {
		t.Fatalf("facade training did not learn: P@1 = %.4f", res.FinalAcc)
	}
	ev, err := net.Evaluate(ds.Test, 300, 0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ev.P1 < 0 || ev.P1 > 1 {
		t.Fatalf("Evaluate P@1 = %v", ev.P1)
	}
	ids, scores, err := net.Predict(ds.Test[0].Features, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || len(scores) != 3 {
		t.Fatalf("Predict returned %d/%d", len(ids), len(scores))
	}
}

// TestTrainingBitsIndependentOfThreads is the public determinism contract:
// a sampled, vanilla-strategy network trained at 1 and at 4 threads, with
// scheduled table rebuilds in the run, saves the same model file, byte for
// byte.
func TestTrainingBitsIndependentOfThreads(t *testing.T) {
	ds, err := dataset.Generate(dataset.Delicious200K(0.005, 7))
	if err != nil {
		t.Fatal(err)
	}
	model := func(threads int) []byte {
		net, err := slide.New(slide.Config{
			InputDim:  ds.InputDim,
			Seed:      7,
			RebuildN0: 4,
			Layers: []slide.LayerConfig{
				{Size: 32, Activation: slide.ActReLU},
				{
					Size: ds.NumClasses, Activation: slide.ActSoftmax,
					Sampled: true, Hash: slide.HashSimhash, K: 4, L: 8,
					Strategy: slide.StrategyVanilla, Beta: ds.NumClasses / 16,
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.Train(ds.Train, ds.Test, slide.TrainConfig{
			BatchSize: 32, Iterations: 12, Threads: threads, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rebuilds == 0 {
			t.Fatal("no table rebuild in the run; the check would not cover one")
		}
		var buf bytes.Buffer
		if err := net.SaveModel(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(model(1), model(4)) {
		t.Fatal("the model trained at 4 threads differs from the one trained at 1")
	}
}

// TestExportedConstantsDistinct pins the exported constants to distinct
// values.
func TestExportedConstantsDistinct(t *testing.T) {
	if slide.HashSimhash == slide.HashDWTA {
		t.Fatal("hash constants collide")
	}
	if slide.StrategyVanilla == slide.StrategyTopK {
		t.Fatal("strategy constants collide")
	}
}

// parsed adapts a typed facade parser to the table in
// TestParseNamesMapToConstants.
func parsed[T any](parse func(string) (T, error)) func(string) (any, error) {
	return func(s string) (any, error) { return parse(s) }
}

// TestParseNamesMapToConstants: every configuration name the binaries
// accept on their flags parses through the facade to the exported
// constant of that name, and a misspelling is an error.
func TestParseNamesMapToConstants(t *testing.T) {
	for _, tc := range []struct {
		kind, name string
		parse      func(string) (any, error)
		want       any
	}{
		{"hash", "simhash", parsed(slide.ParseHash), slide.HashSimhash},
		{"hash", "wta", parsed(slide.ParseHash), slide.HashWTA},
		{"hash", "dwta", parsed(slide.ParseHash), slide.HashDWTA},
		{"hash", "doph", parsed(slide.ParseHash), slide.HashDOPH},
		{"strategy", "vanilla", parsed(slide.ParseStrategy), slide.StrategyVanilla},
		{"strategy", "topk", parsed(slide.ParseStrategy), slide.StrategyTopK},
		{"strategy", "hard-threshold", parsed(slide.ParseStrategy), slide.StrategyHardThreshold},
		{"strategy", "random", parsed(slide.ParseStrategy), slide.StrategyRandom},
		{"policy", "reservoir", parsed(slide.ParsePolicy), slide.PolicyReservoir},
		{"policy", "fifo", parsed(slide.ParsePolicy), slide.PolicyFIFO},
	} {
		t.Run(tc.kind+"/"+tc.name, func(t *testing.T) {
			got, err := tc.parse(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("parsed %q as %v, want %v", tc.name, got, tc.want)
			}
			if _, err := tc.parse(tc.name + "x"); err == nil {
				t.Fatalf("%qx accepted", tc.name)
			}
		})
	}
}

// TestNewVectorNormalizes: NewVector sorts indices and sums duplicates,
// VectorFromDense keeps exactly the non-zero entries, and the two agree on
// the same vector.
func TestNewVectorNormalizes(t *testing.T) {
	v, err := slide.NewVector(8, []int32{5, 1, 5, 3}, []float32{1, 2, 0.5, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := slide.VectorFromDense([]float32{0, 2, 0, 4, 0, 1.5, 0, 0})
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("NewVector = %+v, VectorFromDense = %+v", v, want)
	}
	if _, err := slide.NewVector(8, []int32{8}, []float32{1}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := slide.NewVector(8, []int32{1, 2}, []float32{1}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

// TestLoadModelRestoresNetwork: a model saved by Network.SaveModel and
// read back through the facade's LoadModel carries the same configuration
// and predicts the same classes with the same scores.
func TestLoadModelRestoresNetwork(t *testing.T) {
	net, err := slide.New(slide.Config{
		InputDim: 32,
		Seed:     9,
		Layers: []slide.LayerConfig{
			{Size: 16, Activation: slide.ActReLU},
			{Size: 64, Activation: slide.ActSoftmax, Sampled: true, Hash: slide.HashDWTA, K: 3, L: 8, Beta: 16},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := slide.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Config(), net.Config()) {
		t.Fatalf("loaded config %+v, want %+v", loaded.Config(), net.Config())
	}
	x := slide.VectorFromDense([]float32{0, 1, 0, 0.5, 2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	ids, scores, err := net.Predict(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotIDs, gotScores, err := loaded.Predict(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotIDs, ids) || !reflect.DeepEqual(gotScores, scores) {
		t.Fatalf("loaded model predicts %v %v, original %v %v", gotIDs, gotScores, ids, scores)
	}
}
