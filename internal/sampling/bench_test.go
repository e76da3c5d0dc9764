package sampling

import "testing"

// BenchmarkTableSample measures the query-side probe: one Sample call
// over a populated (K, L) table set per op, per retrieval strategy —
// the read path that rides on the CSR bucket arrays. The table shape
// matches the paper's wide sampled output layer at tiny scale.
func BenchmarkTableSample(b *testing.B) {
	const universe = 16384
	tbl, q := buildTable(b, universe, 6, 16, 3, 0xca11)
	strategies := []Params{
		{Kind: KindVanilla, Beta: 128, Seed: 1},
		{Kind: KindTopK, Beta: 128},
		{Kind: KindHardThreshold, MinCount: 2},
	}
	for _, p := range strategies {
		b.Run(p.Kind.String(), func(b *testing.B) {
			s := mkStrategy(b, p, universe)
			var dst []uint32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = s.Sample(dst[:0], tbl, q)
			}
		})
	}
}
