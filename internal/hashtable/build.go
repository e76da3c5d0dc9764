package hashtable

import (
	"math"
	"sync"

	"repro/internal/rng"
)

// A build fills a set with the ids 0..rows-1 in two passes, parallel
// along the two lock-free axes of §3.1. Pass 1 (AddressRows, over rows)
// writes each row's address in table ti to ids[ti*rows+row], the region
// table ti will fill. Pass 2 (Place, over tables) counting-sorts each
// table; an id that overflows its bucket replays the insertion rule
// exactly (Vitter's algorithm R drawing Intn(seen) from the table's
// generation stream, only on overflow and in id order; FIFO writing slot
// (seen-1) % BucketSize). The result depends only on (config, gen,
// codes), not on the workers or how pass 1 splits its rows.

// Begin starts a build of rows ids, sizing the id array for pass 1. The
// set must not be queried until Place returns.
func (t *Table) Begin(rows int) {
	if rows*t.cfg.L > math.MaxUint32 {
		panic("hashtable: rows × L exceeds the uint32 offset range")
	}
	t.rows, t.ids = rows, make([]uint32, rows*t.cfg.L)
}

// AddressRows is pass 1 for rows base..base+n-1, whose codes are a
// row-major matrix: row base+r hashes to codes[r*stride : r*stride+K*L].
// Distinct goroutines may call it concurrently for disjoint row ranges.
func (t *Table) AddressRows(base, n int, codes []uint32, stride int) {
	if stride < t.cfg.K*t.cfg.L {
		panic("hashtable: AddressRows stride smaller than K*L")
	}
	for r := 0; r < n; r++ {
		row := codes[r*stride : r*stride+stride]
		for ti, at := 0, base+r; ti < t.cfg.L; ti, at = ti+1, at+t.rows {
			t.ids[at] = t.Address(ti, row)
		}
	}
}

// Place is pass 2: it turns every table's addresses into its buckets,
// tables spread over up to workers goroutines. Each worker's scratch is
// one counter per bucket and one id per row.
func (t *Table) Place(workers int) {
	parallel(workers, t.cfg.L, func(lo, hi int) {
		cnt, out := make([]uint32, t.numBuckets), make([]uint32, t.rows)
		for ti := lo; ti < hi; ti++ {
			t.place(ti, cnt, out)
		}
	})
}

// place counting-sorts table ti's addresses into its buckets: count each
// bucket's rows, lay out offsets by a prefix sum over the counts capped at
// BucketSize, then place the ids in ascending order. cnt (numBuckets, any
// contents) and out (rows) are scratch.
func (t *Table) place(ti int, cnt, out []uint32) {
	nb, bs := t.numBuckets, uint32(t.cfg.BucketSize)
	base := ti * t.rows
	addr := t.ids[base : base+t.rows]
	offs := t.offs[ti*(nb+1) : (ti+1)*(nb+1)]
	clear(cnt)
	for _, b := range addr {
		cnt[b]++
	}
	var end uint32
	for b, c := range cnt {
		offs[b] = end
		end += min(c, bs)
		cnt[b] = 0 // now the bucket's seen counter
	}
	offs[nb] = end

	var res rng.RNG // reservoir stream; drawn from only on overflow
	res.ReseedStream(t.cfg.Seed^t.gen*genSeedMix, uint64(ti)+0x7ab1e)
	for id, b := range addr {
		seen := cnt[b] + 1
		cnt[b] = seen
		if seen <= bs {
			out[offs[b]+seen-1] = uint32(id)
			continue
		}
		switch t.cfg.Policy {
		case PolicyReservoir:
			if j := res.Intn(int(seen)); j < int(bs) {
				out[offs[b]+uint32(j)] = uint32(id)
			}
		case PolicyFIFO:
			out[offs[b]+(seen-1)%bs] = uint32(id)
		}
	}
	copy(addr, out[:end])
	for b := range offs {
		offs[b] += uint32(base)
	}
}

// BuildParallel builds the set over ids 0..n-1 from a precomputed
// row-major code matrix (codes[id*stride : id*stride+K*L]): Begin, then
// both passes over up to workers goroutines. It rebuilds t in place, so t
// must not be queried concurrently.
func (t *Table) BuildParallel(n int, codes []uint32, stride, workers int) {
	t.Begin(n)
	parallel(workers, n, func(lo, hi int) {
		t.AddressRows(lo, hi-lo, codes[lo*stride:], stride)
	})
	t.Place(workers)
}

// parallel splits [0, n) into up to workers contiguous ranges and runs fn
// on each in its own goroutine.
func parallel(workers, n int, fn func(lo, hi int)) {
	workers = max(1, min(workers, n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(w*n/workers, (w+1)*n/workers)
	}
	wg.Wait()
}
