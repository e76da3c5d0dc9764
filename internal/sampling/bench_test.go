package sampling

import "testing"

// BenchmarkTableSample measures the query-side probe: one Sample call
// over a populated (K, L) table set per op — the read path that rides on the CSR bucket arrays. The table shape
// matches the paper's wide sampled output layer at tiny scale.
func BenchmarkTableSample(b *testing.B) {
	const universe = 16384
	tbl, q := buildTable(b, universe, 6, 16, 3, 0xca11)
	s := mkStrategy(b, Params{Kind: KindVanilla, Beta: 128, Seed: 1}, universe)
	var dst []uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.Sample(dst[:0], tbl, q)
	}
}
