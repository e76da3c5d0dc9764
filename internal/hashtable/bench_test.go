package hashtable

import (
	"sync"
	"testing"

	"repro/internal/rng"
)

// BenchmarkTableBuild times one build of a train_xwide-shaped set —
// 134,018 rows, DWTA K=8 × 3-bit codes, L=50, RangePow 12 — on random
// codes, fed chunk by chunk as Layer.buildShadow does: pass 1 over two
// row-parallel workers per chunk, then pass 2 over two table-parallel
// workers. Generating the random codes is outside the timer. It reports
// build throughput and the set's bytes (offsets plus ids).
func BenchmarkTableBuild(b *testing.B) {
	const rows, k, l, chunk, workers = 134018, 8, 50, 4096, 2
	const nf = k * l
	base := mkTable(b, Config{K: k, L: l, CodeBits: 3, RangePow: 12, Seed: 1})
	r := rng.New(1)
	codes := make([]uint32, chunk*nf)
	var bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := base.Shadow(uint64(i))
		tbl.Begin(rows)
		for lo := 0; lo < rows; lo += chunk {
			n := min(chunk, rows-lo)
			b.StopTimer()
			for j := range codes[:n*nf] {
				codes[j] = r.Uint32() & 7
			}
			b.StartTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wlo, whi := w*n/workers, (w+1)*n/workers
				wg.Add(1)
				go func() {
					defer wg.Done()
					tbl.AddressRows(lo+wlo, whi-wlo, codes[wlo*nf:whi*nf], nf)
				}()
			}
			wg.Wait()
		}
		tbl.Place(workers)
		bytes = 4 * (len(tbl.offs) + len(tbl.ids))
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(bytes), "bytes/set")
}
