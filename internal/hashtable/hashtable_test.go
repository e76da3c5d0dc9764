package hashtable

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func mkTable(t testing.TB, cfg Config) *Table {
	t.Helper()
	tbl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func randCodes(r *rng.RNG, k, l, bits int) []uint32 {
	codes := make([]uint32, k*l)
	for i := range codes {
		codes[i] = uint32(r.Intn(1 << bits))
	}
	return codes
}

// sameCodes is a code matrix of n rows that all carry codes.
func sameCodes(n int, codes []uint32) []uint32 {
	m := make([]uint32, 0, n*len(codes))
	for range n {
		m = append(m, codes...)
	}
	return m
}

func TestBuildQueryRoundTrip(t *testing.T) {
	tbl := mkTable(t, Config{K: 3, L: 4, CodeBits: 2, Seed: 1})
	r := rng.New(7)
	const n = 64
	m := randCodes(r, 3, 4*n, 2) // n rows of K*L codes
	tbl.BuildParallel(n, m, 3*4, 2)
	for id := uint32(0); id < n; id++ {
		codes := m[id*12 : (id+1)*12]
		for ti := 0; ti < 4; ti++ {
			if !slices.Contains(tbl.Bucket(ti, codes), id) {
				t.Fatalf("id %d missing from table %d after the build", id, ti)
			}
		}
	}
}

func TestAddressDeterministicAndInRange(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		tbl, err := New(Config{K: 4, L: 3, CodeBits: 3, RangePow: 8, Seed: seed})
		if err != nil {
			return false
		}
		r := rng.New(seed)
		codes := randCodes(r, 4, 3, 3)
		for ti := 0; ti < 3; ti++ {
			a := tbl.Address(ti, codes)
			if a != tbl.Address(ti, codes) {
				return false
			}
			if int(a) >= tbl.NumBuckets() {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackedAddressing(t *testing.T) {
	// K*CodeBits = 6 <= RangePow: direct concatenation.
	tbl := mkTable(t, Config{K: 3, L: 1, CodeBits: 2, RangePow: 6, Seed: 1})
	codes := []uint32{0b01, 0b10, 0b11}
	if got := tbl.Address(0, codes); got != 0b011011 {
		t.Fatalf("packed address = %b, want 011011", got)
	}
}

func TestBucketCapacityLimit(t *testing.T) {
	tbl := mkTable(t, Config{K: 1, L: 1, CodeBits: 1, BucketSize: 8, Seed: 1})
	codes := []uint32{1}
	tbl.BuildParallel(100, sameCodes(100, codes), 1, 1)
	if got := len(tbl.Bucket(0, codes)); got != 8 {
		t.Fatalf("bucket holds %d ids, capacity is 8", got)
	}
	st := tbl.Stats()
	if st.TotalSeen != 100 || st.TotalStored != 8 || st.MaxBucketLen != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestReservoirUniformity: after N ≫ cap insertions, every inserted id
// should survive with probability cap/N (Vitter's algorithm R invariant).
func TestReservoirUniformity(t *testing.T) {
	const capSize, n, trials = 8, 64, 3000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		tbl := mkTable(t, Config{K: 1, L: 1, CodeBits: 1, BucketSize: capSize, Policy: PolicyReservoir, Seed: uint64(trial + 1)})
		codes := []uint32{0}
		tbl.BuildParallel(n, sameCodes(n, codes), 1, 1)
		for _, id := range tbl.Bucket(0, codes) {
			counts[id]++
		}
	}
	want := float64(trials) * capSize / n
	for id, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("id %d survived %d times, want ~%.0f", id, c, want)
		}
	}
}

// TestBuildParallelReplacesContents: building a built set again replaces
// its contents wholesale, as if it were fresh, at any row count.
func TestBuildParallelReplacesContents(t *testing.T) {
	cfg := Config{K: 2, L: 3, CodeBits: 2, BucketSize: 4, Seed: 9}
	tbl := mkTable(t, cfg)
	buildInto(tbl, 50, 1)
	buildInto(tbl, 10, 2)
	fresh := mkTable(t, cfg)
	buildInto(fresh, 10, 2)
	if !tbl.Equal(fresh) {
		t.Fatal("a rebuilt set differs from a fresh build of the same rows")
	}
	if st := tbl.Stats(); st.TotalSeen != 10*3 || st.TotalStored > st.TotalSeen {
		t.Fatalf("rebuilt set stats = %+v", st)
	}
}

// TestBuildRejectsBadShapes: a build whose rows × L ids would overflow the
// uint32 offsets panics in Begin before allocating, and pass 1 refuses a
// code stride shorter than one row's K*L codes.
func TestBuildRejectsBadShapes(t *testing.T) {
	tbl := mkTable(t, Config{K: 3, L: 2, CodeBits: 2, Seed: 1})
	mustPanic := func(want string, fn func()) {
		t.Helper()
		defer func() {
			if got, _ := recover().(string); !strings.Contains(got, want) {
				t.Fatalf("panic %q, want one naming %q", got, want)
			}
		}()
		fn()
	}
	mustPanic("uint32 offset range", func() { tbl.Begin(math.MaxUint32/2 + 1) })
	tbl.Begin(4)
	mustPanic("stride smaller than K*L", func() { tbl.AddressRows(0, 4, make([]uint32, 4*5), 5) })
}

// referenceBuild is the naive per-bucket builder the two-pass CSR build
// must reproduce: ids in ascending order are appended to their bucket
// until it is full, then replaced by Vitter's algorithm R (one draw of the
// table's generation stream per overflowing id). The buckets are then
// packed into a Table for Equal.
func referenceBuild(base *Table, gen uint64, n int, codes []uint32, stride int) *Table {
	cfg := base.Config()
	ref := base.Shadow(gen)
	ref.rows = n
	ref.ids = make([]uint32, n*cfg.L)
	for ti := 0; ti < cfg.L; ti++ {
		res := rng.NewStream(cfg.Seed^gen*genSeedMix, uint64(ti)+0x7ab1e)
		buckets := make([][]uint32, ref.NumBuckets())
		seen := make([]int, ref.NumBuckets())
		for id := 0; id < n; id++ {
			b := ref.Address(ti, codes[id*stride:(id+1)*stride])
			seen[b]++
			if len(buckets[b]) < cfg.BucketSize {
				buckets[b] = append(buckets[b], uint32(id))
			} else if j := res.Intn(seen[b]); j < cfg.BucketSize {
				buckets[b][j] = uint32(id)
			}
		}
		pos := ti * n
		offs := ref.offs[ti*(ref.NumBuckets()+1):]
		for b, ids := range buckets {
			offs[b] = uint32(pos)
			pos += copy(ref.ids[pos:], ids)
		}
		offs[ref.NumBuckets()] = uint32(pos)
	}
	return ref
}

// TestBuildMatchesReference: the two-pass build equals the naive
// per-bucket builder, bucket contents and order, for every bucket size
// (1 and 2 overflow nearly every bucket, 128 almost none), packed and mixed addressing, several generations, any worker count, and
// pass 1 split over consecutive row ranges.
func TestBuildMatchesReference(t *testing.T) {
	const n = 700
	shapes := []struct {
		name          string
		k, l, bits, r int
	}{
		{"packed", 3, 5, 2, 0}, // K*CodeBits = 6 bits, packed
		{"mixed", 4, 6, 3, 7},  // 12 code bits mixed down to 7
		{"dwta", 8, 4, 3, 12},  // train_xwide addressing: 24 code bits mixed down to 12
	}
	for _, sh := range shapes {
		r := rng.New(uint64(sh.k*100 + sh.l))
		stride := sh.k*sh.l + 3 // rows may carry trailing codes
		codes := randCodes(r, stride, n, sh.bits)
		for _, bs := range []int{1, 2, 4, 128} {
			base := mkTable(t, Config{K: sh.k, L: sh.l, CodeBits: sh.bits, RangePow: sh.r, BucketSize: bs, Seed: 5})
			for _, gen := range []uint64{0, 7, 8} {
				ref := referenceBuild(base, gen, n, codes, stride)
				for workers := 1; workers <= 4; workers++ {
					got := base.Shadow(gen)
					got.BuildParallel(n, codes, stride, workers)
					if !got.Equal(ref) {
						t.Fatalf("%s BucketSize %d gen %d workers %d: build differs from the reference", sh.name, bs, gen, workers)
					}
					split := base.Shadow(gen)
					split.Begin(n)
					cut := n * workers / 5
					split.AddressRows(0, cut, codes, stride)
					split.AddressRows(cut, n-cut, codes[cut*stride:], stride)
					split.Place(workers)
					if !split.Equal(ref) {
						t.Fatalf("%s BucketSize %d gen %d: build split at row %d differs from the reference", sh.name, bs, gen, cut)
					}
				}
			}
		}
	}
}

// TestAutoRangePowFootprint: a DWTA-shaped set at the automatic RangePow
// (K=8 × 3-bit codes → 2^18 buckets) costs its offsets and one id per row
// per table, not 2^18 × BucketSize slots per table.
func TestAutoRangePowFootprint(t *testing.T) {
	const k, l, rows = 8, 4, 10000
	codes := randCodes(rng.New(1), k*l, rows, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tbl := mkTable(t, Config{K: k, L: l, CodeBits: 3, Seed: 1})
	tbl.BuildParallel(rows, codes, k*l, 2)
	runtime.ReadMemStats(&after)
	if tbl.NumBuckets() != 1<<18 {
		t.Fatalf("auto RangePow gave %d buckets, want 2^18", tbl.NumBuckets())
	}
	const limit = 16 << 20
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= limit {
		t.Fatalf("building %d rows at auto RangePow allocated %d bytes; want < %d", rows, grew, limit)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{K: 0, L: 1, CodeBits: 1},
		{K: 1, L: 0, CodeBits: 1},
		{K: 1, L: 1, CodeBits: 0},
		{K: 1, L: 1, CodeBits: 33},
		{K: 1, L: 1, CodeBits: 1, RangePow: 29},
		{K: 1, L: 1, CodeBits: 1, BucketSize: -1},
		{K: 1, L: 1, CodeBits: 1, Policy: 1}, // FIFO, deleted
		{K: 1, L: 1, CodeBits: 1, Policy: 9},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestDefaultRangePow(t *testing.T) {
	tbl := mkTable(t, Config{K: 9, L: 1, CodeBits: 1, Seed: 1})
	if tbl.NumBuckets() != 1<<9 {
		t.Fatalf("K=9 1-bit codes should give 512 buckets, got %d", tbl.NumBuckets())
	}
	// Wide codes cap at DefaultRangePowCap.
	tbl = mkTable(t, Config{K: 8, L: 1, CodeBits: 8, Seed: 1})
	if tbl.NumBuckets() != 1<<DefaultRangePowCap {
		t.Fatalf("wide codes should cap at 2^%d buckets, got %d", DefaultRangePowCap, tbl.NumBuckets())
	}
}

func TestMixedAddressingSpreads(t *testing.T) {
	// K*CodeBits (24) > RangePow (10): mixed addressing must spread ids
	// across many buckets, not collapse them.
	tbl := mkTable(t, Config{K: 8, L: 1, CodeBits: 3, RangePow: 10, Seed: 2})
	r := rng.New(11)
	seen := map[uint32]bool{}
	for i := 0; i < 500; i++ {
		seen[tbl.Address(0, randCodes(r, 8, 1, 3))] = true
	}
	if len(seen) < 300 {
		t.Fatalf("mixed addressing hit only %d distinct buckets in 500 draws", len(seen))
	}
}

// buildInto builds ids 0..n-1 from a seed-deterministic code matrix, so
// the identical build can be replayed into another table for comparison.
func buildInto(tbl *Table, n int, seed uint64) {
	cfg := tbl.Config()
	tbl.BuildParallel(n, randCodes(rng.New(seed), cfg.K*cfg.L, n, cfg.CodeBits), cfg.K*cfg.L, 2)
}

// TestShadowGenerationDeterministic pins the shadow-build equivalence
// contract: two shadows of the same generation fed the same insertion
// sequence are bucket-for-bucket identical (including reservoir
// replacement decisions), no matter where they were built — while a
// different generation draws a different replacement stream.
func TestShadowGenerationDeterministic(t *testing.T) {
	// BucketSize 2 forces heavy reservoir churn so the replacement
	// streams actually matter.
	base := mkTable(t, Config{K: 2, L: 3, CodeBits: 2, BucketSize: 2, Seed: 9})
	const n = 512

	a := base.Shadow(7)
	b := base.Shadow(7)
	done := make(chan struct{})
	go func() { // a detached build on another goroutine changes nothing
		buildInto(b, n, 4)
		close(done)
	}()
	buildInto(a, n, 4)
	<-done
	if !a.Equal(b) {
		t.Fatal("same-generation shadows diverged on an identical insertion sequence")
	}

	c := base.Shadow(8)
	buildInto(c, n, 4)
	if a.Equal(c) {
		t.Fatal("generations 7 and 8 produced identical reservoir decisions — gen is not reaching the streams")
	}

	// Generation 0 reproduces the historical New seeding.
	fresh := mkTable(t, Config{K: 2, L: 3, CodeBits: 2, BucketSize: 2, Seed: 9})
	g0 := base.Shadow(0)
	buildInto(fresh, n, 4)
	buildInto(g0, n, 4)
	if !fresh.Equal(g0) {
		t.Fatal("generation-0 shadow does not match a freshly constructed table")
	}
}

// TestEqualDetectsDifferences sanity-checks the comparison itself.
func TestEqualDetectsDifferences(t *testing.T) {
	cfg := Config{K: 2, L: 2, CodeBits: 2, Seed: 3}
	a := mkTable(t, cfg)
	b := mkTable(t, cfg)
	buildInto(a, 32, 1)
	buildInto(b, 32, 1)
	if !a.Equal(b) {
		t.Fatal("identically built tables compare unequal")
	}
	buildInto(b, 32, 2)
	if a.Equal(b) {
		t.Fatal("tables with different contents compare equal")
	}
	buildInto(b, 33, 1)
	if a.Equal(b) {
		t.Fatal("tables over different row counts compare equal")
	}
	if a.Equal(mkTable(t, Config{K: 2, L: 2, CodeBits: 2, Seed: 4})) {
		t.Fatal("tables with different configs compare equal")
	}
}

// TestHandleSwapUnderConcurrentReaders is the handle's concurrency
// contract, run under -race in CI: readers Load and query freely while a
// writer keeps publishing fresh shadow generations; every loaded set
// stays internally consistent (ids in range, lengths within capacity).
func TestHandleSwapUnderConcurrentReaders(t *testing.T) {
	cfg := Config{K: 2, L: 4, CodeBits: 3, BucketSize: 8, Seed: 17}
	first := mkTable(t, cfg)
	const n = 256
	buildInto(first, n, 1)
	h := NewHandle(first)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g) + 100)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tbl := h.Load()
				codes := randCodes(r, 2, 4, 3)
				for ti := 0; ti < tbl.L(); ti++ {
					for _, id := range tbl.Bucket(ti, codes) {
						if id >= n {
							t.Errorf("reader %d saw out-of-range id %d", g, id)
							return
						}
					}
				}
			}
		}(g)
	}
	for gen := uint64(1); gen <= 50; gen++ {
		shadow := h.Load().Shadow(gen)
		buildInto(shadow, n, gen)
		old := h.Swap(shadow)
		if old == nil {
			t.Fatal("Swap returned nil previous table")
		}
	}
	close(stop)
	wg.Wait()
}
