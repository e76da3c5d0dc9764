package core

import (
	"testing"

	"repro/internal/lsh"
	"repro/internal/sampling"
)

// BenchmarkRebuild measures an inline rebuild of one wide sampled output
// layer — the shape whose cost the §4.2 schedule exists to amortize:
// every row transposed, block-hashed and addressed, every table placed,
// every generation. simhash is a 16K-row Simhash layer; dwta_xwide is
// train_xwide's output layer (134,018 × 128, DWTA K 8, L 50, RangePow 12).
// Both report rows/s.
func BenchmarkRebuild(b *testing.B) {
	for _, c := range []struct {
		name string
		out  LayerConfig
	}{
		{"simhash", LayerConfig{
			Size: 16384, Activation: ActSoftmax,
			Sampled: true, Hash: lsh.KindSimhash, K: 6, L: 16,
			Strategy: sampling.KindVanilla, Beta: 128,
		}},
		{"dwta_xwide", LayerConfig{
			Size: 134018, Activation: ActSoftmax,
			Sampled: true, Hash: lsh.KindDWTA, K: 8, L: 50, RangePow: 12,
			Strategy: sampling.KindVanilla, Beta: 670,
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			n, err := NewNetwork(Config{
				InputDim: 128,
				Seed:     17,
				Layers:   []LayerConfig{{Size: 128, Activation: ActReLU}, c.out},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.RebuildTables(0)
			}
			b.ReportMetric(float64(c.out.Size)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
