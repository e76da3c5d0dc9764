package core

import (
	"testing"

	"repro/internal/lsh"
	"repro/internal/sampling"
)

// BenchmarkRebuild measures an inline rebuild of one wide sampled output
// layer — the shape whose cost the §4.2 schedule exists to amortize:
// every row staged, block-hashed and inserted, every generation.
func BenchmarkRebuild(b *testing.B) {
	n, err := NewNetwork(Config{
		InputDim: 128,
		Seed:     17,
		Layers: []LayerConfig{
			{Size: 128, Activation: ActReLU},
			{
				Size: 16384, Activation: ActSoftmax,
				Sampled: true, Hash: lsh.KindSimhash, K: 6, L: 16,
				Strategy: sampling.KindVanilla, Beta: 128,
			},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.RebuildTables(0)
	}
}
