package hashtable

import "sync"

// InsertRows inserts ids base..base+n-1 into every table from a row-major
// code matrix: id base+r hashes to codes[r*stride : r*stride+K*L]. Work is
// parallelized across tables — each goroutine owns a disjoint range of
// table indices, so no synchronization is needed — which is the paper's
// observation that table construction "can easily be parallelized with
// multiple threads" (§3.1). Within a table ids go in ascending, so calls
// over consecutive row ranges build the same tables as one call over their
// union. This is the one bulk insert: training rebuilds feed it a chunk of
// freshly hashed rows at a time.
func (t *Table) InsertRows(base uint32, n int, codes []uint32, stride, workers int) {
	if stride < t.cfg.K*t.cfg.L {
		panic("hashtable: InsertRows stride smaller than K*L")
	}
	insert := func(lo, hi int) {
		for ti := lo; ti < hi; ti++ {
			for r := 0; r < n; r++ {
				t.InsertInto(ti, base+uint32(r), codes[r*stride:r*stride+stride])
			}
		}
	}
	workers = min(workers, t.cfg.L)
	if workers <= 1 {
		insert(0, t.cfg.L)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			insert(lo, hi)
		}(w*t.cfg.L/workers, (w+1)*t.cfg.L/workers)
	}
	wg.Wait()
}

// BuildParallel clears the tables and inserts ids 0..n-1 using the
// precomputed flat code matrix (codes[id*stride : id*stride+K*L]).
func (t *Table) BuildParallel(n int, codes []uint32, stride, workers int) {
	t.Clear()
	t.InsertRows(0, n, codes, stride, workers)
}
