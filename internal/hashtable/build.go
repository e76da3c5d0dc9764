package hashtable

import (
	"math"
	"sync"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// A build fills a set with the ids 0..rows-1 in two passes, parallel
// along the two lock-free axes of §3.1. Pass 1 (AddressBlock, over blocks
// of eight rows) writes each row's address in table ti to
// ids[ti*rows+row], the region table ti will fill: eight rows' addresses
// are one contiguous store per table. Pass 2 (Place, over tables)
// counting-sorts each table; an id that overflows its bucket replays the
// insertion rule exactly (Vitter's algorithm R drawing Intn(seen) from the
// table's generation stream, only on overflow and in id order). The result
// depends only on (config, gen, codes), not on the workers or how pass 1
// splits its rows.

// Begin starts a build of rows ids, sizing the id array for pass 1. The
// set must not be queried until Place returns.
func (t *Table) Begin(rows int) {
	if rows*t.cfg.L > math.MaxUint32 {
		panic("hashtable: rows × L exceeds the uint32 offset range")
	}
	t.rows, t.ids = rows, make([]uint32, rows*t.cfg.L)
}

// AddressBlock is pass 1 for the rows base..base+n-1 (1 ≤ n ≤ 8) of one
// block, whose codes are function-major by row as lsh.Family.HashBlock
// writes them: row base+r's code f at codes[f*8+r]. Each row's address in
// table ti is bitwise Address(ti, row's codes); the eight rows of a full
// block take one vector pass per table (vecmath.PackAddresses or
// MixAddresses). Distinct goroutines may call it concurrently for disjoint
// blocks.
func (t *Table) AddressBlock(base, n int, codes []uint32) {
	if base < 0 || n < 1 || n > 8 || base+n > t.rows {
		panic("hashtable: AddressBlock rows outside the build")
	}
	c := t.cfg
	dst := t.ids[base:]
	if t.packed {
		vecmath.PackAddresses(dst, t.rows, n, codes, c.K, c.L, c.CodeBits)
	} else {
		vecmath.MixAddresses(dst, t.rows, n, codes, c.K, c.L, c.Seed, uint32(t.numBuckets-1))
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
		if j := res.Intn(int(seen)); j < int(bs) {
			out[offs[b]+uint32(j)] = uint32(id)
		}
	}
	copy(addr, out[:end])
	for b := range offs {
		offs[b] += uint32(base)
	}
}

// BuildParallel builds the set over ids 0..n-1 from a precomputed
// row-major code matrix (codes[id*stride : id*stride+K*L]): Begin, then
// both passes over up to workers goroutines, pass 1 transposing each block
// of eight rows' codes for AddressBlock. It rebuilds t in place, so t must
// not be queried concurrently.
func (t *Table) BuildParallel(n int, codes []uint32, stride, workers int) {
	nf := t.cfg.K * t.cfg.L
	if stride < nf {
		panic("hashtable: BuildParallel stride smaller than K*L")
	}
	t.Begin(n)
	parallel(workers, (n+7)/8, func(lo, hi int) {
		block := make([]uint32, 8*nf)
		for b := lo; b < hi; b++ {
			base := 8 * b
			rows := min(8, n-base)
			for r := 0; r < rows; r++ {
				for f, c := range codes[(base+r)*stride:][:nf] {
					block[f*8+r] = c
				}
			}
			t.AddressBlock(base, rows, block)
		}
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
