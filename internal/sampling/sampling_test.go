package sampling

import (
	"math"
	"testing"

	"repro/internal/hashtable"
	"repro/internal/rng"
)

// buildTable fills a (K, L) table set with n ids under random codes and
// returns it with a query code vector.
func buildTable(t testing.TB, n, k, l, bits int, seed uint64) (*hashtable.Table, []uint32) {
	t.Helper()
	tbl, err := hashtable.New(hashtable.Config{K: k, L: l, CodeBits: bits, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	codes := make([]uint32, n*k*l)
	for i := range codes {
		codes[i] = uint32(r.Intn(1 << bits))
	}
	tbl.BuildParallel(n, codes, k*l, 1)
	q := make([]uint32, k*l)
	for i := range q {
		q[i] = uint32(r.Intn(1 << bits))
	}
	return tbl, q
}

// matchTable builds K=1 tables of 1-bit codes over ids 0..len(match)-1
// in which id collides with the all-ones query in its first match[id]
// tables and in no other.
func matchTable(t testing.TB, match []int, l int, seed uint64) *hashtable.Table {
	t.Helper()
	tbl, err := hashtable.New(hashtable.Config{K: 1, L: l, CodeBits: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	codes := make([]uint32, len(match)*l)
	for id, m := range match {
		for ti := 0; ti < m; ti++ {
			codes[id*l+ti] = 1
		}
	}
	tbl.BuildParallel(len(match), codes, l, 1)
	return tbl
}

func mkStrategy(t testing.TB, p Params, universe int) Strategy {
	t.Helper()
	s, err := New(p, universe)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestVanillaRespectsBetaAndUniqueness(t *testing.T) {
	const n = 2000
	tbl, q := buildTable(t, n, 2, 8, 2, 3)
	s := mkStrategy(t, Params{Kind: KindVanilla, Beta: 50, Seed: 1}, n)
	for trial := 0; trial < 20; trial++ {
		got := s.Sample(nil, tbl, q)
		if len(got) > 50 {
			t.Fatalf("vanilla returned %d > beta ids", len(got))
		}
		seen := map[uint32]bool{}
		for _, id := range got {
			if seen[id] {
				t.Fatalf("duplicate id %d", id)
			}
			seen[id] = true
		}
	}
}

func TestRandomStrategyUniformUnique(t *testing.T) {
	s := mkStrategy(t, Params{Kind: KindRandom, Beta: 40, Universe: 100, Seed: 9}, 100)
	counts := make([]int, 100)
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		got := s.Sample(nil, nil, nil)
		if len(got) != 40 {
			t.Fatalf("random returned %d ids, want 40", len(got))
		}
		seen := map[uint32]bool{}
		for _, id := range got {
			if seen[id] || id >= 100 {
				t.Fatalf("bad draw %v", got)
			}
			seen[id] = true
			counts[id]++
		}
	}
	want := float64(trials) * 40 / 100
	for id, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("id %d drawn %d times, want ~%.0f", id, c, want)
		}
	}
}

// TestReseedMatchesFreshStrategy pins the determinism contract: for every
// kind, a strategy that has been drawn from arbitrarily and then reseeded
// with s samples identically to a fresh strategy constructed with Seed s.
func TestReseedMatchesFreshStrategy(t *testing.T) {
	const n = 2000
	tbl, q := buildTable(t, n, 2, 8, 2, 3)
	for _, kind := range []Kind{KindVanilla, KindRandom} {
		params := func(seed uint64) Params {
			return Params{Kind: kind, Beta: 50, Universe: n, Seed: seed}
		}
		used := mkStrategy(t, params(1), n)
		for i := 0; i < 17; i++ { // advance the private stream
			used.Sample(nil, tbl, q)
		}
		used.Reseed(99)
		fresh := mkStrategy(t, params(99), n)
		for trial := 0; trial < 10; trial++ {
			got := used.Sample(nil, tbl, q)
			want := fresh.Sample(nil, tbl, q)
			if len(got) != len(want) {
				t.Fatalf("%v trial %d: reseeded returned %d ids, fresh %d", kind, trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v trial %d: reseeded[%d] = %d, fresh = %d", kind, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReseedIsRepeatable checks Reseed(s); Sample is a fixed point: two
// reseeds with the same seed replay the same draw.
func TestReseedIsRepeatable(t *testing.T) {
	const n = 2000
	tbl, q := buildTable(t, n, 2, 8, 2, 3)
	s := mkStrategy(t, Params{Kind: KindVanilla, Beta: 50, Seed: 1}, n)
	s.Reseed(7)
	first := append([]uint32(nil), s.Sample(nil, tbl, q)...)
	s.Sample(nil, tbl, q) // perturb
	s.Reseed(7)
	second := s.Sample(nil, tbl, q)
	if len(first) != len(second) {
		t.Fatalf("replayed draw has %d ids, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replayed draw diverged at %d: %d vs %d", i, second[i], first[i])
		}
	}
}

func TestEmptyTablesReturnNothing(t *testing.T) {
	tbl, err := hashtable.New(hashtable.Config{K: 2, L: 4, CodeBits: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := make([]uint32, 8)
	s := mkStrategy(t, Params{Kind: KindVanilla, Beta: 10, Seed: 1}, 64)
	if got := s.Sample(nil, tbl, q); len(got) != 0 {
		t.Errorf("vanilla returned %v from empty tables", got)
	}
}

func TestSampleAppendsToDst(t *testing.T) {
	const n = 500
	tbl, q := buildTable(t, n, 2, 6, 2, 7)
	s := mkStrategy(t, Params{Kind: KindVanilla, Beta: 10, Seed: 1}, n)
	dst := []uint32{111}
	got := s.Sample(dst, tbl, q)
	if len(got) == 0 || got[0] != 111 {
		t.Fatalf("Sample did not append to dst: %v", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Params{Kind: KindVanilla, Beta: 0}, 10); err == nil {
		t.Error("vanilla with zero beta accepted")
	}
	if _, err := New(Params{Kind: KindRandom, Beta: 5}, 0); err == nil {
		t.Error("random without universe accepted")
	}
	if _, err := New(Params{Kind: KindRandom, Beta: 0, Universe: 10}, 10); err == nil {
		t.Error("random with zero beta accepted")
	}
	// 1 and 2 were TopK and hard thresholding; a model file may still
	// name them.
	for _, kind := range []Kind{1, 2, 42} {
		if _, err := New(Params{Kind: kind, Beta: 1}, 10); err == nil {
			t.Errorf("%v accepted", kind)
		}
	}
}

// TestVanillaFavorsCollidingIDs: retrieval frequency under vanilla
// sampling from a single bucket per table follows the LSH sampling view
// (§2.1): higher per-function collision => higher retrieval rate.
func TestVanillaFavorsCollidingIDs(t *testing.T) {
	const l = 10
	q := make([]uint32, l)
	for i := range q {
		q[i] = 1
	}
	// id 1 matches all tables; id 2 matches 3 of 10.
	tbl := matchTable(t, []int{1: l, 2: 3}, l, 4)
	s := mkStrategy(t, Params{Kind: KindVanilla, Beta: 1, Seed: 8}, 8)
	got1, got2 := 0, 0
	for trial := 0; trial < 1000; trial++ {
		ids := s.Sample(nil, tbl, q)
		if len(ids) != 1 {
			t.Fatalf("beta=1 returned %v", ids)
		}
		switch ids[0] {
		case 1:
			got1++
		case 2:
			got2++
		}
	}
	if got1 <= got2 {
		t.Fatalf("fully-colliding id retrieved %d <= partially-colliding %d", got1, got2)
	}
}
