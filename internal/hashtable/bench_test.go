package hashtable

import (
	"sync"
	"testing"

	"repro/internal/rng"
)

// BenchmarkTableBuild times one build of a train_xwide-shaped set —
// 134,018 rows, DWTA K=8 × 3-bit codes, L=50, RangePow 12 — fed as
// Layer.build feeds it: pass 1 over blocks of eight rows on two workers,
// then pass 2 over two table-parallel workers. The blocks' codes cycle
// through 2,048 random blocks drawn outside the timer. It reports build
// throughput and the set's bytes (offsets plus ids).
func BenchmarkTableBuild(b *testing.B) {
	const rows, k, l, pool, workers = 134018, 8, 50, 2048, 2
	const nf = k * l
	base := mkTable(b, Config{K: k, L: l, CodeBits: 3, RangePow: 12, Seed: 1})
	r := rng.New(1)
	codes := make([]uint32, pool*8*nf)
	for j := range codes {
		codes[j] = r.Uint32() & 7
	}
	var bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := base.Shadow(uint64(i))
		tbl.Begin(rows)
		blocks := (rows + 7) / 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for blk := lo; blk < hi; blk++ {
					tbl.AddressBlock(8*blk, min(8, rows-8*blk), codes[blk%pool*8*nf:][:8*nf])
				}
			}(w*blocks/workers, (w+1)*blocks/workers)
		}
		wg.Wait()
		tbl.Place(workers)
		bytes = 4 * (len(tbl.offs) + len(tbl.ids))
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(bytes), "bytes/set")
}
