package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"
)

// TestNewNetworkBitsIndependentOfGOMAXPROCS checks that the weight init,
// which splits storage rows over GOMAXPROCS workers, saves the same model
// bytes at 1, 2 and 4 procs, with an input-major first layer and with a
// sampled neuron-major one (the goldenModelCases shapes).
func TestNewNetworkBitsIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range goldenModelCases {
		t.Run(c.name, func(t *testing.T) {
			var want []byte
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				var f bytes.Buffer
				if err := mustNet(t, c.cfg).SaveModel(&f); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = f.Bytes()
				} else if !bytes.Equal(f.Bytes(), want) {
					t.Fatalf("GOMAXPROCS=%d saves different bytes than GOMAXPROCS=1", procs)
				}
			}
		})
	}
}

// TestInitWeightsMoments checks a fresh layer's weights against the He
// (ReLU) and Xavier (otherwise) normal: mean within 5 standard errors of
// 0, standard deviation within 2% of std (the sample std's relative
// standard error is sqrt(1/2N) ≈ 0.2% here), and neighbouring storage
// rows, which draw from neighbouring stream keys, uncorrelated within 5
// standard errors.
func TestInitWeightsMoments(t *testing.T) {
	cfg := tinyConfig(1000)
	cfg.Layers[0].Size = 256
	n := mustNet(t, cfg)
	for _, c := range []struct {
		l   *Layer
		std float64
	}{
		{n.layers[0], math.Sqrt(2.0 / 512)}, // input-major ReLU: 512 rows of 256
		{n.layers[1], math.Sqrt(1.0 / 256)}, // neuron-major softmax: 1000 rows of 256
	} {
		var sum, sumSq, adj float64
		cells, pairs := 0, 0
		for r, row := range c.l.w {
			for col, w := range row {
				sum += float64(w)
				sumSq += float64(w) * float64(w)
				if r > 0 {
					adj += float64(w) * float64(c.l.w[r-1][col])
					pairs++
				}
			}
			cells += len(row)
		}
		mean := sum / float64(cells)
		std := math.Sqrt(sumSq/float64(cells) - mean*mean)
		if math.Abs(mean) > 5*c.std/math.Sqrt(float64(cells)) {
			t.Errorf("layer %d: mean %v over %d weights, want ~0", c.l.idx, mean, cells)
		}
		if math.Abs(std/c.std-1) > 0.02 {
			t.Errorf("layer %d: std %v, want %v within 2%%", c.l.idx, std, c.std)
		}
		if rho := adj / float64(pairs) / (c.std * c.std); math.Abs(rho) > 5/math.Sqrt(float64(pairs)) {
			t.Errorf("layer %d: neighbouring rows correlate at %v", c.l.idx, rho)
		}
	}
}

// BenchmarkNewNetwork measures NewNetwork at benchModel's CI-sized shape
// (20K × 128 × 5K, sampled output): the weight init and the table build.
// It reports as init-share the fraction of it that one weight init of the
// built network costs.
func BenchmarkNewNetwork(b *testing.B) {
	var drawn time.Duration
	for i := 0; i < b.N; i++ {
		n := benchModel(b)
		b.StopTimer()
		t0 := time.Now()
		for _, l := range n.layers {
			l.initWeights(n.cfg.Seed, defaultThreads())
		}
		drawn += time.Since(t0)
		b.StartTimer()
	}
	b.ReportMetric(float64(drawn)/float64(b.Elapsed()), "init-share")
}
