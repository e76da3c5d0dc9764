package hashtable

import (
	"math"
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

func TestInsertQueryRoundTrip(t *testing.T) {
	tbl := mkTable(t, Config{K: 3, L: 4, CodeBits: 2, Seed: 1})
	r := rng.New(7)
	codes := randCodes(r, 3, 4, 2)
	tbl.Insert(42, codes)
	for ti := 0; ti < 4; ti++ {
		found := false
		for _, id := range tbl.Bucket(ti, codes) {
			if id == 42 {
				found = true
			}
		}
		if !found {
			t.Fatalf("id missing from table %d after Insert", ti)
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
	for id := uint32(0); id < 100; id++ {
		tbl.Insert(id, codes)
	}
	if got := len(tbl.Bucket(0, codes)); got != 8 {
		t.Fatalf("bucket holds %d ids, capacity is 8", got)
	}
	st := tbl.Stats()
	if st.TotalSeen != 100 || st.TotalStored != 8 || st.MaxBucketLen != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFIFOReplacement(t *testing.T) {
	tbl := mkTable(t, Config{K: 1, L: 1, CodeBits: 1, BucketSize: 4, Policy: PolicyFIFO, Seed: 1})
	codes := []uint32{0}
	for id := uint32(0); id < 10; id++ {
		tbl.Insert(id, codes)
	}
	// Ring buffer after 10 inserts with cap 4: slots hold 8, 9, 6, 7.
	got := tbl.Bucket(0, codes)
	want := map[uint32]bool{6: true, 7: true, 8: true, 9: true}
	if len(got) != 4 {
		t.Fatalf("bucket len %d", len(got))
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("FIFO kept %v, want the 4 most recent {6,7,8,9}", got)
		}
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
		for id := uint32(0); id < n; id++ {
			tbl.Insert(id, codes)
		}
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

func TestClearEmptiesBuckets(t *testing.T) {
	tbl := mkTable(t, Config{K: 2, L: 3, CodeBits: 2, Seed: 9})
	r := rng.New(1)
	for id := uint32(0); id < 50; id++ {
		tbl.Insert(id, randCodes(r, 2, 3, 2))
	}
	tbl.Clear()
	st := tbl.Stats()
	if st.TotalStored != 0 || st.NonEmpty != 0 || st.TotalSeen != 0 {
		t.Fatalf("Clear left state: %+v", st)
	}
}

func TestBuildParallelMatchesSerial(t *testing.T) {
	const n, k, l, bits = 500, 3, 5, 2
	r := rng.New(3)
	codes := make([]uint32, n*k*l)
	for i := range codes {
		codes[i] = uint32(r.Intn(1 << bits))
	}
	serial := mkTable(t, Config{K: k, L: l, CodeBits: bits, Policy: PolicyFIFO, Seed: 5})
	for id := 0; id < n; id++ {
		serial.Insert(uint32(id), codes[id*k*l:(id+1)*k*l])
	}
	par := mkTable(t, Config{K: k, L: l, CodeBits: bits, Policy: PolicyFIFO, Seed: 5})
	par.BuildParallel(n, codes, k*l, 4)
	// Per-table insertion order is identical, so contents must match
	// bucket for bucket.
	for id := 0; id < n; id++ {
		cs := codes[id*k*l : (id+1)*k*l]
		for ti := 0; ti < l; ti++ {
			a := serial.Bucket(ti, cs)
			b := par.Bucket(ti, cs)
			if len(a) != len(b) {
				t.Fatalf("table %d bucket sizes differ: %d vs %d", ti, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("table %d bucket contents differ", ti)
				}
			}
		}
	}

	// InsertRows over two consecutive row ranges is the same build as
	// BuildParallel over the whole, down to the reservoir decisions of
	// overflowing buckets — what lets a rebuild insert chunk by chunk.
	rcfg := Config{K: k, L: l, CodeBits: bits, BucketSize: 4, Policy: PolicyReservoir, Seed: 5}
	whole, split := mkTable(t, rcfg), mkTable(t, rcfg)
	whole.BuildParallel(n, codes, k*l, 4)
	const cut = 200
	split.InsertRows(0, cut, codes, k*l, 2)
	split.InsertRows(cut, n-cut, codes[cut*k*l:], k*l, 3)
	if !whole.Equal(split) {
		t.Fatal("InsertRows over two ranges diverged from BuildParallel over the whole")
	}
	if st := whole.Stats(); st.TotalSeen != n*l || st.TotalStored == st.TotalSeen {
		t.Fatalf("reservoir build saw %d insertions and stored %d; want %d seen with overflow", st.TotalSeen, st.TotalStored, n*l)
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

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{PolicyReservoir, PolicyFIFO} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("ParsePolicy accepted garbage")
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

// buildInto inserts n ids with a seed-deterministic code sequence, so the
// identical sequence can be replayed into another table for comparison.
func buildInto(tbl *Table, n int, seed uint64) {
	r := rng.New(seed)
	for id := 0; id < n; id++ {
		tbl.Insert(uint32(id), randCodes(r, tbl.Config().K, tbl.Config().L, tbl.Config().CodeBits))
	}
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
	r := rng.New(99)
	b.Insert(1000, randCodes(r, 2, 2, 2))
	if a.Equal(b) {
		t.Fatal("tables with different contents compare equal")
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
