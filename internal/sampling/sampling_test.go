package sampling

import (
	"math"
	"testing"
	"testing/quick"

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

func TestTopKReturnsMostFrequent(t *testing.T) {
	const n, l = 64, 6
	// id 7 collides with the query in every table; id 9 in half; ids
	// 10..39 in the first table; the rest nowhere.
	q := []uint32{1, 1, 1, 1, 1, 1}
	match := make([]int, 40)
	match[7], match[9] = 6, 3
	for id := 10; id < 40; id++ {
		match[id] = 1
	}
	tbl := matchTable(t, match, l, 2)
	s := mkStrategy(t, Params{Kind: KindTopK, Beta: 2, Seed: 1}, n)
	got := s.Sample(nil, tbl, q)
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("topk = %v, want [7 9]", got)
	}
}

func TestHardThresholdCountsOccurrences(t *testing.T) {
	const n, l = 64, 6
	q := []uint32{1, 1, 1, 1, 1, 1}
	tbl := matchTable(t, []int{5: 6, 6: 3, 7: 1}, l, 2)
	s := mkStrategy(t, Params{Kind: KindHardThreshold, MinCount: 3, Seed: 1}, n)
	got := s.Sample(nil, tbl, q)
	want := map[uint32]bool{5: true, 6: true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Fatalf("hard-threshold = %v, want {5, 6}", got)
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
	for _, kind := range []Kind{KindVanilla, KindTopK, KindHardThreshold, KindRandom} {
		params := func(seed uint64) Params {
			return Params{Kind: kind, Beta: 50, MinCount: 2, Universe: n, Seed: seed}
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
	for _, kind := range []Kind{KindVanilla, KindTopK, KindHardThreshold} {
		s := mkStrategy(t, Params{Kind: kind, Beta: 10, MinCount: 2, Seed: 1}, 64)
		if got := s.Sample(nil, tbl, q); len(got) != 0 {
			t.Errorf("%v returned %v from empty tables", kind, got)
		}
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
	if _, err := New(Params{Kind: Kind(42), Beta: 1}, 10); err == nil {
		t.Error("unknown kind accepted")
	}
	// Hard threshold needs no beta.
	if _, err := New(Params{Kind: KindHardThreshold}, 10); err != nil {
		t.Errorf("hard threshold rejected: %v", err)
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, kind := range []Kind{KindVanilla, KindTopK, KindHardThreshold, KindRandom} {
		got, err := ParseKind(kind.String())
		if err != nil || got != kind {
			t.Errorf("ParseKind(%q) = %v, %v", kind.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted garbage")
	}
}

// TestSelectionProbabilityProperties checks eqn. 3's invariants: a valid
// probability, monotone in p, decreasing in m, and degenerate cases.
func TestSelectionProbabilityProperties(t *testing.T) {
	if err := quick.Check(func(pRaw uint8, kRaw, mRaw uint8) bool {
		p := float64(pRaw%99+1) / 100
		k := int(kRaw)%4 + 1
		l := 10
		m := int(mRaw)%l + 1
		pr := SelectionProbability(p, k, l, m)
		if pr < 0 || pr > 1 {
			return false
		}
		// Monotone in p.
		if p < 0.9 && SelectionProbability(p+0.05, k, l, m) < pr-1e-12 {
			return false
		}
		// Decreasing in m.
		if m < l && SelectionProbability(p, k, l, m+1) > pr+1e-12 {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// m=1 equals the classical 1-(1-p^K)^L.
	for _, p := range []float64{0.2, 0.5, 0.8} {
		a := SelectionProbability(p, 2, 10, 1)
		b := AnyBucketProbability(p, 2, 10)
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("m=1 mismatch at p=%v: %v vs %v", p, a, b)
		}
	}
	// Fig. 11 anchor: m=9, L=10, K=1 crosses Pr=0.5 near p≈0.84.
	if pr := SelectionProbability(0.8, 1, 10, 9); pr > 0.5 {
		t.Errorf("Pr(p=0.8,m=9) = %v, expected below 0.5", pr)
	}
	if pr := SelectionProbability(0.9, 1, 10, 9); pr < 0.5 {
		t.Errorf("Pr(p=0.9,m=9) = %v, expected above 0.5", pr)
	}
}

func TestVanillaSelectionProbability(t *testing.T) {
	// tau=L means matching every table: p^(K*L).
	got := VanillaSelectionProbability(0.5, 2, 4, 4)
	want := math.Pow(0.25, 4)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestVanillaEmpiricalMatchesTheory: retrieval frequency under vanilla
// sampling from a single bucket per table approximates the LSH sampling
// view (§2.1): higher per-function collision => higher retrieval rate.
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
