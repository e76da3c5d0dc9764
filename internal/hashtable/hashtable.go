// Package hashtable implements the (K, L)-parameterized LSH tables at the
// heart of SLIDE (§2, §3.2): L independent tables, each addressed by a
// meta-hash of K codes, holding neuron ids in capacity-limited buckets
// stored in CSR layout and built whole in two passes (see Table, build.go).
//
// Bucket capacity is limited (the paper: "the number of entries is limited
// to a fixed bucket size" to bound memory and balance thread load), and a
// full bucket replaces by Vitter reservoir sampling (§4.2), which
// preserves the adaptive sampling property. FIFO, §4.2's other policy,
// keeps each overflowing bucket's highest ids when a build inserts in id
// order, and never beat reservoir in README's App. C.1 sweep.
//
// Addressing: when the K codes of a table pack into at most RangePow bits
// they are concatenated directly (as in the reference C++ implementation);
// otherwise the codes are mixed by a seeded 64-bit finalizer down to
// RangePow bits.
package hashtable

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync/atomic"
)

// Policy selects the replacement strategy applied when inserting into a
// full bucket. Policies are stored as integers in model files: 1 was FIFO,
// deleted after the App. C.1 sweep, and Validate refuses it.
type Policy int

// PolicyReservoir keeps a uniform sample of all ids ever inserted
// (Vitter's algorithm R), preserving LSH's adaptive sampling property.
const PolicyReservoir Policy = 0

// String returns the configuration name of the policy.
func (p Policy) String() string {
	if p == PolicyReservoir {
		return "reservoir"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Validate returns an error naming p unless it is PolicyReservoir.
func (p Policy) Validate() error {
	if p != PolicyReservoir {
		return fmt.Errorf("hashtable: unknown policy %v", p)
	}
	return nil
}

// Config parameterizes a table set.
type Config struct {
	// K is the number of hash codes concatenated per table address.
	K int
	// L is the number of tables.
	L int
	// CodeBits is the significant bit width of each code (from the LSH
	// family's CodeBits).
	CodeBits int
	// RangePow caps each table at 1<<RangePow buckets. Zero selects
	// min(K*CodeBits, 18), mirroring the reference implementation's
	// default table range.
	RangePow int
	// BucketSize is the fixed bucket capacity. Zero selects 128.
	BucketSize int
	// Policy is the full-bucket replacement policy; PolicyReservoir is
	// the only one. It exists because benchmark/probe.go sets it.
	Policy Policy
	// Seed drives the mixing hash and reservoir randomness.
	Seed uint64
}

// DefaultRangePowCap bounds the automatic RangePow choice so that tables
// of wide codes (e.g. DWTA's K*3 bits) do not allocate huge offset arrays:
// at the cap a table's offsets cost 1 MB.
const DefaultRangePowCap = 18

// DefaultBucketSize is the paper's fixed bucket size.
const DefaultBucketSize = 128

func (c Config) withDefaults() Config {
	if c.BucketSize == 0 {
		c.BucketSize = DefaultBucketSize
	}
	if c.RangePow == 0 {
		c.RangePow = c.K * c.CodeBits
		if c.RangePow > DefaultRangePowCap {
			c.RangePow = DefaultRangePowCap
		}
	}
	return c
}

func (c Config) validate() error {
	if c.K <= 0 || c.L <= 0 {
		return fmt.Errorf("hashtable: K and L must be positive, got K=%d L=%d", c.K, c.L)
	}
	if c.CodeBits <= 0 || c.CodeBits > 32 {
		return fmt.Errorf("hashtable: CodeBits must be in [1,32], got %d", c.CodeBits)
	}
	if c.RangePow < 1 || c.RangePow > 28 {
		return fmt.Errorf("hashtable: RangePow must be in [1,28], got %d", c.RangePow)
	}
	if c.BucketSize < 1 {
		return fmt.Errorf("hashtable: BucketSize must be positive, got %d", c.BucketSize)
	}
	return c.Policy.Validate()
}

// Table is a set of L LSH tables over the ids 0..rows-1 of one build, in
// compressed sparse row (CSR) layout: with o = ti*(numBuckets+1), bucket
// b of table ti holds ids[offs[o+b]:offs[o+b+1]], min(count, BucketSize)
// ids inside the table's rows-long region ids[ti*rows:]. A set costs
// 4·L·(numBuckets+1+rows) bytes. It is written only by its build (see
// build.go) and read-only afterwards; queries are safe concurrently.
type Table struct {
	cfg        Config
	gen        uint64 // reservoir stream family of the build
	numBuckets int
	packed     bool // direct code concatenation vs mixed addressing
	rows       int  // ids of the current build: 0..rows-1

	offs []uint32 // [L*(numBuckets+1)] absolute bucket bounds into ids
	ids  []uint32 // [L*rows]; table ti's region at ti*rows
}

// New creates an empty table set at generation zero.
func New(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newTable(cfg, 0), nil
}

// genSeedMix folds a rebuild generation into the reservoir seed space, so
// every generation's replacement decisions come from a fresh stream (no
// generation repeats another) while staying a pure function of (seed, gen).
const genSeedMix = 0xd1b54a32d192ed03

// newTable builds an empty table set (every offset zero) from an
// already-validated config. gen selects the reservoir stream family:
// generation 0 reproduces New's seeding.
func newTable(cfg Config, gen uint64) *Table {
	nb := 1 << cfg.RangePow
	return &Table{
		cfg:        cfg,
		gen:        gen,
		numBuckets: nb,
		packed:     cfg.K*cfg.CodeBits <= cfg.RangePow,
		offs:       make([]uint32, cfg.L*(nb+1)),
	}
}

// Shadow returns a new empty table set with the same configuration whose
// reservoir streams are derived from gen. A generation-g build is a pure
// function of (config, gen, codes): building the same rows into two
// generation-g shadows — inline or on a background goroutine, in one
// range or several — yields bucket-for-bucket identical tables. This is
// the detached target of the non-blocking rebuild lifecycle: build a
// shadow off the hot path, then publish it through a Handle.
func (t *Table) Shadow(gen uint64) *Table {
	return newTable(t.cfg, gen)
}

// Config returns the (defaulted) configuration of the table set.
func (t *Table) Config() Config { return t.cfg }

// NumBuckets returns the bucket count per table.
func (t *Table) NumBuckets() int { return t.numBuckets }

// L returns the number of tables.
func (t *Table) L() int { return t.cfg.L }

// Address computes the bucket index in table ti for a full code vector
// (length >= K*L, laid out as L runs of K codes).
func (t *Table) Address(ti int, codes []uint32) uint32 {
	k := t.cfg.K
	run := codes[ti*k : ti*k+k]
	if t.packed {
		var a uint32
		for _, c := range run {
			a = a<<uint(t.cfg.CodeBits) | c
		}
		return a
	}
	h := t.cfg.Seed ^ uint64(ti)*0x9e3779b97f4a7c15
	for _, c := range run {
		h ^= uint64(c) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return uint32(h) & uint32(t.numBuckets-1)
}

// Bucket returns the ids stored in the bucket of table ti addressed by the
// code vector. The returned slice aliases internal storage; callers must
// not mutate it.
func (t *Table) Bucket(ti int, codes []uint32) []uint32 {
	return t.BucketAt(ti, int(t.Address(ti, codes)))
}

// BucketAt returns the ids stored in bucket bi of table ti, for
// diagnostics and table comparison. The slice aliases internal storage.
func (t *Table) BucketAt(ti, bi int) []uint32 {
	i := ti*(t.numBuckets+1) + bi
	return t.ids[t.offs[i]:t.offs[i+1]]
}

// Equal reports whether two table sets share the same configuration, row
// count and bucket-for-bucket identical contents, including entry order —
// the equivalence a detached shadow build must satisfy against a
// synchronous rebuild from the same snapshot.
func (t *Table) Equal(o *Table) bool {
	if o == nil || t.cfg != o.cfg || t.rows != o.rows || !slices.Equal(t.offs, o.offs) {
		return false
	}
	for ti := 0; ti < t.cfg.L; ti++ {
		lo, hi := ti*t.rows, t.offs[(ti+1)*(t.numBuckets+1)-1]
		if !slices.Equal(t.ids[lo:hi], o.ids[lo:hi]) {
			return false
		}
	}
	return true
}

// EncodedSizes are the sizes of the arrays EncodeOffsets and EncodeIDs
// write for a set of rows ids under cfg: L·(2^RangePow+1) offsets and
// L·rows ids, four bytes each, RangePow defaulted as New defaults it.
func (c Config) EncodedSizes(rows int) (offs, ids int64) {
	c = c.withDefaults()
	return 4 * int64(c.L) * (int64(1)<<c.RangePow + 1), 4 * int64(c.L) * int64(rows)
}

// EncodeOffsets writes the set's offsets as a model file carries them,
// every value a little-endian uint32.
func (t *Table) EncodeOffsets(w io.Writer) error {
	return newUint32Writer(w).put(t.offs)
}

// EncodeIDs writes the set's ids as a model file carries them: each
// table's rows-long id region with the slots past its last bucket zero,
// every value a little-endian uint32. A set Decode reads back from what
// EncodeOffsets and EncodeIDs wrote is Equal to t.
func (t *Table) EncodeIDs(w io.Writer) error {
	e := newUint32Writer(w)
	for ti := 0; ti < t.cfg.L; ti++ {
		lo, end := ti*t.rows, int(t.offs[(ti+1)*(t.numBuckets+1)-1])
		if err := e.put(t.ids[lo:end]); err != nil {
			return err
		}
		for unused := lo + t.rows - end; unused > 0; unused -= len(zeroIDs) {
			if err := e.put(zeroIDs[:min(unused, len(zeroIDs))]); err != nil {
				return err
			}
		}
	}
	return nil
}

var zeroIDs [4096]uint32

// uint32Writer writes little-endian uint32s through a buffer of its own.
type uint32Writer struct {
	w io.Writer
	b []byte
}

func newUint32Writer(w io.Writer) *uint32Writer {
	return &uint32Writer{w: w, b: make([]byte, 0, 4*len(zeroIDs))}
}

func (e *uint32Writer) put(vals []uint32) error {
	for len(vals) > 0 {
		n := min(len(vals), cap(e.b)/4)
		e.b = e.b[:0]
		for _, v := range vals[:n] {
			e.b = binary.LittleEndian.AppendUint32(e.b, v)
		}
		if _, err := e.w.Write(e.b); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// Decode fills t, an empty set from New or Shadow, with the set over ids
// 0..rows-1 whose arrays EncodeOffsets and EncodeIDs wrote as offs and
// ids, keeping t's configuration and generation. It checks the set's
// bounds, not how it was built: each table starts at its region ti·rows
// and ends inside it, its offsets do not decrease, no bucket holds more
// than BucketSize ids, every id is below rows and every unused slot is
// zero. Anything else is an error and t must be discarded; an array
// shorter than EncodedSizes says is io.ErrUnexpectedEOF.
func (t *Table) Decode(offs, ids []byte, rows int) error {
	if rows < 0 || int64(rows)*int64(t.cfg.L) > math.MaxUint32 {
		return fmt.Errorf("hashtable: %d rows × L %d exceed the uint32 offset range", rows, t.cfg.L)
	}
	if len(offs) < 4*len(t.offs) || len(ids) < 4*rows*t.cfg.L {
		return io.ErrUnexpectedEOF
	}
	t.rows, t.ids = rows, make([]uint32, rows*t.cfg.L)
	for i := range t.offs {
		t.offs[i] = binary.LittleEndian.Uint32(offs[4*i:])
	}
	nb, bs := t.numBuckets, uint32(t.cfg.BucketSize)
	for ti := 0; ti < t.cfg.L; ti++ {
		offs := t.offs[ti*(nb+1) : (ti+1)*(nb+1)]
		start, end := uint32(ti*rows), uint32((ti+1)*rows)
		if offs[0] != start {
			return fmt.Errorf("hashtable: table %d starts at %d, not at its region %d", ti, offs[0], start)
		}
		if offs[nb] > end {
			return fmt.Errorf("hashtable: table %d ends at %d, past its region's end %d", ti, offs[nb], end)
		}
		for b := 0; b < nb; b++ {
			if offs[b+1] < offs[b] {
				return fmt.Errorf("hashtable: table %d bucket %d: offsets decrease from %d to %d", ti, b, offs[b], offs[b+1])
			}
			if n := offs[b+1] - offs[b]; n > bs {
				return fmt.Errorf("hashtable: table %d bucket %d holds %d ids, more than BucketSize %d", ti, b, n, bs)
			}
		}
	}
	for i := range t.ids {
		t.ids[i] = binary.LittleEndian.Uint32(ids[4*i:])
	}
	for ti := 0; ti < t.cfg.L; ti++ {
		region := t.ids[ti*rows : (ti+1)*rows]
		used := int(t.offs[(ti+1)*(nb+1)-1]) - ti*rows
		for i, id := range region {
			if i < used && id >= uint32(rows) {
				return fmt.Errorf("hashtable: table %d holds id %d, not below rows %d", ti, id, rows)
			}
			if i >= used && id != 0 {
				return fmt.Errorf("hashtable: table %d has %d in an unused slot", ti, id)
			}
		}
	}
	return nil
}

// Handle is an atomically swappable reference to a Table — the published
// side of the non-blocking rebuild lifecycle. Readers Load the current
// table set and keep querying it for the duration of one operation while
// a writer publishes a replacement with Store or Swap; a superseded set
// stays fully valid (nothing is freed or cleared) until its readers
// drain, so queries never block on table maintenance.
type Handle struct {
	p atomic.Pointer[Table]
}

// NewHandle returns a handle initially referencing t.
func NewHandle(t *Table) *Handle {
	h := &Handle{}
	h.p.Store(t)
	return h
}

// Load returns the current table set. The result is stable for as long as
// the caller holds it, even across concurrent swaps.
func (h *Handle) Load() *Table { return h.p.Load() }

// Store publishes t as the current table set.
func (h *Handle) Store(t *Table) { h.p.Store(t) }

// Swap publishes t and returns the superseded table set.
func (h *Handle) Swap(t *Table) *Table { return h.p.Swap(t) }

// Stats summarizes table occupancy, for diagnostics and tests.
type Stats struct {
	Tables       int
	BucketsPer   int
	TotalStored  int     // ids currently stored across all tables
	TotalSeen    int     // insertions the build replayed: rows × L
	NonEmpty     int     // non-empty buckets across all tables
	MaxBucketLen int     // largest current bucket occupancy
	AvgBucketLen float64 // mean occupancy over non-empty buckets
}

// Stats computes occupancy statistics.
func (t *Table) Stats() Stats {
	s := Stats{Tables: t.cfg.L, BucketsPer: t.numBuckets, TotalSeen: t.rows * t.cfg.L}
	for ti := 0; ti < t.cfg.L; ti++ {
		offs := t.offs[ti*(t.numBuckets+1) : (ti+1)*(t.numBuckets+1)]
		for b := 0; b < t.numBuckets; b++ {
			if n := int(offs[b+1] - offs[b]); n > 0 {
				s.TotalStored += n
				s.NonEmpty++
				s.MaxBucketLen = max(s.MaxBucketLen, n)
			}
		}
	}
	if s.NonEmpty > 0 {
		s.AvgBucketLen = float64(s.TotalStored) / float64(s.NonEmpty)
	}
	return s
}
