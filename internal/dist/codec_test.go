package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// factorKinds is a network of every layer kind the codec carries: a
// sampled layer under another layer (ids, δ and activations), a full
// hidden layer whose width is not a multiple of 8 (δ and activations, no
// ids) and a sampled last layer (ids and δ), over a wide input.
var factorKinds = newCodec(700, []layerShape{{out: 40, vals: true}, {out: 13, full: true, vals: true}, {out: 37}})

// addRecord appends one record's factors to ld.
func addRecord(ld *core.LayerDelta, ids []int32, delta, vals []float32) {
	if len(ld.Off) == 0 {
		ld.Off = append(ld.Off, 0)
	}
	ld.IDs = append(ld.IDs, ids...)
	ld.Delta = append(ld.Delta, delta...)
	ld.Vals = append(ld.Vals, vals...)
	ld.Off = append(ld.Off, ld.Off[len(ld.Off)-1]+int32(max(len(ids), len(delta), len(vals))))
}

// randomValues draws n values over several magnitudes, with zeros and -0.
func randomValues(r *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		switch p := r.Float64(); {
		case p < 0.2:
		case p < 0.22:
			v[i] = float32(math.Copysign(0, -1))
		default:
			v[i] = float32(r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3)))
		}
	}
	return v
}

// randomRecords builds records random records valid for c's shapes:
// features in any order, repeats included, and per sampled layer a random
// ascending active set, empty now and then.
func randomRecords(r *rand.Rand, c *Codec, records int) *core.SparseDelta {
	d := &core.SparseDelta{Layers: make([]core.LayerDelta, len(c.layers))}
	for range records {
		feats := make([]int32, r.Intn(9))
		for t := range feats {
			feats[t] = int32(r.Intn(int(c.inputs)))
		}
		addRecord(&d.Input, feats, nil, randomValues(r, len(feats)))
		for li, sh := range c.layers {
			var ids []int32
			n := int(sh.out)
			if !sh.full {
				for j := range sh.out {
					if r.Float64() < 0.3 {
						ids = append(ids, j)
					}
				}
				n = len(ids)
			}
			var vals []float32
			if sh.vals {
				vals = randomValues(r, n)
			}
			addRecord(&d.Layers[li], ids, randomValues(r, n), vals)
		}
	}
	return d
}

// sameBits reports whether a and b hold the same values bit for bit.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// deltasEqual compares two deltas' records: offsets, ids, and every value
// bit for bit (fp32 travels exactly, -0 included).
func deltasEqual(a, b *core.SparseDelta) bool {
	if len(a.Layers) != len(b.Layers) {
		return false
	}
	for li := -1; li < len(a.Layers); li++ {
		la, lb := &a.Input, &b.Input
		if li >= 0 {
			la, lb = &a.Layers[li], &b.Layers[li]
		}
		if !slices.Equal(la.Off, lb.Off) || !slices.Equal(la.IDs, lb.IDs) || !sameBits(la.Delta, lb.Delta) || !sameBits(la.Vals, lb.Vals) {
			return false
		}
	}
	return true
}

// TestCodecRoundTripProperty: for many random record sets of every layer
// kind, encode → decode reproduces the delta exactly, and the decoded
// delta re-encodes to the same bytes.
func TestCodecRoundTripProperty(t *testing.T) {
	c := factorKinds
	r := rand.New(rand.NewSource(41))
	var buf []byte
	var scratch *core.SparseDelta
	for trial := 0; trial < 200; trial++ {
		d := randomRecords(r, c, r.Intn(12))
		var err error
		buf, err = c.AppendDelta(buf[:0], d)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		scratch, err = c.DecodeDelta(scratch, buf)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !deltasEqual(d, scratch) {
			t.Fatalf("trial %d: round-trip mismatch", trial)
		}
		again, err := c.AppendDelta(nil, scratch)
		if err != nil {
			t.Fatalf("trial %d: re-encode: %v", trial, err)
		}
		if string(again) != string(buf) {
			t.Fatalf("trial %d: re-encoding the decoded delta changed bytes", trial)
		}
	}
}

// TestCodecCompactness: a train_2shard-shaped round — 64 records of
// Delicious-200K at 0.03 (~75 features of 23.5K, a 128-wide hidden layer,
// ~320 active of 6.2K classes) — encodes to at most an eighth of the
// 3,109,286 bytes the v4 row-block codec measured per round at that shape.
func TestCodecCompactness(t *testing.T) {
	const v4Bytes = 3109286
	c := newCodec(23500, []layerShape{{out: 128, full: true, vals: true}, {out: 6200}})
	r := rand.New(rand.NewSource(7))
	d := &core.SparseDelta{Layers: make([]core.LayerDelta, 2)}
	for range 64 {
		feats := make([]int32, 75)
		for t := range feats {
			feats[t] = int32(r.Intn(23500))
		}
		slices.Sort(feats)
		addRecord(&d.Input, feats, nil, randomValues(r, 75))
		addRecord(&d.Layers[0], nil, randomValues(r, 128), randomValues(r, 128))
		var ids []int32
		for j := range int32(6200) {
			if r.Intn(20) == 0 {
				ids = append(ids, j)
			}
		}
		addRecord(&d.Layers[1], ids, randomValues(r, len(ids)), nil)
	}
	buf, err := c.AppendDelta(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d records: %d bytes, %.1f per record", 64, len(buf), float64(len(buf))/64)
	if len(buf) > v4Bytes/8 {
		t.Fatalf("a train_2shard round encodes to %d bytes, above 1/8 of v4's %d", len(buf), v4Bytes)
	}
}

// TestCodecRejectsMalformed: truncations, bad magic, trailing bytes, a
// wrong layer count and deltas that break the network's shapes all error
// instead of panicking or silently passing.
func TestCodecRejectsMalformed(t *testing.T) {
	c := factorKinds
	d := randomRecords(rand.New(rand.NewSource(3)), c, 4)
	buf, err := c.AppendDelta(nil, d)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("empty buffer", func(t *testing.T) {
		if _, err := c.DecodeDelta(nil, nil); err == nil {
			t.Fatal("decoded empty buffer")
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for cut := 1; cut < len(buf); cut++ {
			if _, err := c.DecodeDelta(nil, buf[:len(buf)-cut]); err == nil {
				t.Fatalf("decoded %d-byte truncation", cut)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), buf...)
		bad[0] ^= 0xff
		if _, err := c.DecodeDelta(nil, bad); err == nil {
			t.Fatal("decoded bad magic")
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := c.DecodeDelta(nil, append(append([]byte(nil), buf...), 0)); err == nil {
			t.Fatal("decoded trailing garbage")
		}
	})
	t.Run("wrong layer count", func(t *testing.T) {
		other := newCodec(700, c.layers[:2])
		if _, err := other.DecodeDelta(nil, buf); err == nil {
			t.Fatal("decoded delta with wrong layer count")
		}
	})
	// Deltas the decoder could never have produced are refused on encode.
	for name, mutate := range map[string]func(d *core.SparseDelta){
		"feature out of range":    func(d *core.SparseDelta) { d.Input.IDs[0] = 700 },
		"feature without value":   func(d *core.SparseDelta) { d.Input.Vals = d.Input.Vals[:len(d.Input.Vals)-1] },
		"id out of range":         func(d *core.SparseDelta) { d.Layers[2].IDs[0] = 37 },
		"ids descending":          func(d *core.SparseDelta) { d.Layers[0].IDs[0], d.Layers[0].IDs[1] = 5, 2 },
		"ids without δ":           func(d *core.SparseDelta) { d.Layers[2].Delta = d.Layers[2].Delta[:1] },
		"full layer ids":          func(d *core.SparseDelta) { d.Layers[1].IDs = make([]int32, len(d.Layers[1].Delta)) },
		"full layer short":        func(d *core.SparseDelta) { d.Layers[1].Off[1]-- },
		"missing activations":     func(d *core.SparseDelta) { d.Layers[1].Vals = nil },
		"last layer activations":  func(d *core.SparseDelta) { d.Layers[2].Vals = make([]float32, len(d.Layers[2].Delta)) },
		"records disagree":        func(d *core.SparseDelta) { d.Layers[0].Off = d.Layers[0].Off[:2] },
		"offsets past the factor": func(d *core.SparseDelta) { d.Layers[2].Off[4]++ },
		"features missing":        func(d *core.SparseDelta) { d.Input.IDs, d.Input.Vals = nil, nil },
		"ids and δ missing":       func(d *core.SparseDelta) { d.Layers[2].IDs, d.Layers[2].Delta = nil, nil },
	} {
		t.Run(name, func(t *testing.T) {
			bad := &core.SparseDelta{Layers: make([]core.LayerDelta, 3)}
			for k := range int32(4) {
				addRecord(&bad.Input, []int32{k, 3}, nil, []float32{1, 2})
				addRecord(&bad.Layers[0], []int32{2, 5}, []float32{1, 2}, []float32{3, 4})
				addRecord(&bad.Layers[1], nil, make([]float32, 13), make([]float32, 13))
				addRecord(&bad.Layers[2], []int32{0, 36}, []float32{1, 1}, nil)
			}
			if _, err := c.AppendDelta(nil, bad); err != nil {
				t.Fatalf("the unmutated delta was refused: %v", err)
			}
			mutate(bad)
			if _, err := c.AppendDelta(nil, bad); err == nil {
				t.Fatalf("encoded a delta with %s", name)
			}
		})
	}
}

// TestCodecRefusesOtherVersions: a frame opened by another codec
// version's magic — v4's rows and masks, which this decoder would misread
// as records — is refused before its body is read.
func TestCodecRefusesOtherVersions(t *testing.T) {
	c := factorKinds
	buf, err := c.AppendDelta(nil, randomRecords(rand.New(rand.NewSource(5)), c, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeDelta(nil, buf); err != nil {
		t.Fatalf("own frame rejected: %v", err)
	}
	for _, v := range []byte{'3', '4'} {
		old := append([]byte{'S', 'D', 'L', v}, buf[len(codecMagic):]...)
		if _, err := c.DecodeDelta(nil, old); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("v%c frame: err = %v, want a bad-magic refusal", v, err)
		}
	}
}

// TestCodecRejectsNonFinite: a NaN or ±Inf feature value, δ or
// activation — one corrupt frame, or the records of a replica whose
// training diverged — is refused with an error naming its layer, wherever
// it sits, instead of being folded into every replica's weights.
func TestCodecRejectsNonFinite(t *testing.T) {
	c := factorKinds
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				r := rand.New(rand.NewSource(seed))
				d := randomRecords(r, c, 3)
				d.Input.IDs = append(d.Input.IDs, 1)
				d.Input.Vals = append(d.Input.Vals, 1)
				d.Input.Off[3]++ // the last record has a feature
				for where, vals := range map[string][]float32{
					"input": d.Input.Vals, "layer 0": d.Layers[0].Vals, "layer 1": d.Layers[1].Delta,
					"layer 1:": d.Layers[1].Vals, "layer 2": d.Layers[2].Delta,
				} {
					if len(vals) == 0 {
						continue
					}
					k := r.Intn(len(vals))
					keep := vals[k]
					vals[k] = bad
					buf, err := c.AppendDelta(nil, d)
					if err != nil {
						t.Fatal(err)
					}
					_, err = c.DecodeDelta(nil, buf)
					if err == nil || !strings.Contains(err.Error(), strings.TrimSuffix(where, ":")) || !strings.Contains(err.Error(), "non-finite") {
						t.Fatalf("seed %d, %s value %d: err = %v, want a non-finite refusal naming it", seed, where, k, err)
					}
					vals[k] = keep
				}
			}
		})
	}
}

// TestCodecAcceptsFiniteExtremes: the non-finite check refuses only an
// all-ones exponent. The largest finite magnitudes, subnormals and -0, as
// features, δ and activations, decode as sent.
func TestCodecAcceptsFiniteExtremes(t *testing.T) {
	c := factorKinds
	for name, v := range map[string]float32{
		"max":                math.MaxFloat32,
		"-max":               -math.MaxFloat32,
		"smallest normal":    math.Float32frombits(0x00800000),
		"largest subnormal":  math.Float32frombits(0x007fffff),
		"smallest subnormal": math.SmallestNonzeroFloat32,
		"-0":                 float32(math.Copysign(0, -1)),
	} {
		t.Run(name, func(t *testing.T) {
			d := randomRecords(rand.New(rand.NewSource(9)), c, 5)
			for _, vals := range [][]float32{d.Input.Vals, d.Layers[0].Delta, d.Layers[0].Vals, d.Layers[1].Delta, d.Layers[1].Vals, d.Layers[2].Delta} {
				for k := range vals {
					if k%3 == 0 {
						vals[k] = v
					}
				}
			}
			buf, err := c.AppendDelta(nil, d)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.DecodeDelta(nil, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !deltasEqual(d, got) {
				t.Fatal("decoded values differ from those sent")
			}
		})
	}
}

// allFinite reports whether every value of d is finite.
func allFinite(d *core.SparseDelta) bool {
	for li := -1; li < len(d.Layers); li++ {
		ld := &d.Input
		if li >= 0 {
			ld = &d.Layers[li]
		}
		for _, vs := range [][]float32{ld.Delta, ld.Vals} {
			for _, v := range vs {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					return false
				}
			}
		}
	}
	return true
}

// FuzzDecodeDelta drives the decoder with arbitrary bytes: it may not
// panic, anything it accepts must be all-finite, and it must re-encode and
// re-decode to the same delta.
func FuzzDecodeDelta(f *testing.F) {
	c := factorKinds
	r := rand.New(rand.NewSource(11))
	var seedFrame []byte
	for i := 0; i < 8; i++ {
		d := randomRecords(r, c, 1+i%4)
		if i >= 4 {
			// A non-finite value for the fuzzer to move around.
			if ld := &d.Layers[i%3]; len(ld.Delta) > 0 {
				ld.Delta[len(ld.Delta)/2] = float32(math.Inf(1 - 2*(i%2)))
			}
		}
		seed, err := c.AppendDelta(nil, d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		seedFrame = seed
	}
	f.Add([]byte{})
	f.Add([]byte{'S', 'D', 'L', '0' + codecVersion, 3, 0})
	f.Add(append([]byte{'S', 'D', 'L', '4'}, seedFrame[len(codecMagic):]...)) // a v4 frame
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := c.DecodeDelta(nil, data)
		if err != nil {
			return
		}
		if !allFinite(d) {
			t.Fatal("accepted a delta with a non-finite value")
		}
		buf, err := c.AppendDelta(nil, d)
		if err != nil {
			t.Fatalf("accepted delta failed to re-encode: %v", err)
		}
		again, err := c.DecodeDelta(nil, buf)
		if err != nil {
			t.Fatalf("re-encoded delta failed to decode: %v", err)
		}
		if !deltasEqual(d, again) {
			t.Fatal("decode/encode/decode not stable")
		}
	})
}

// frameHead starts a hand-built frame: magic, layer count and record
// count.
func frameHead(layers, records uint64) []byte {
	buf := append([]byte(nil), codecMagic[:]...)
	buf = binary.AppendUvarint(buf, layers)
	return binary.AppendUvarint(buf, records)
}

// TestCodecRejectsAllocationBomb: a few header bytes declaring a huge
// record count, feature count, id count or value count must be refused
// before the decoder allocates the declared space — the payload has to
// back every record with its least bytes on the wire, and every declared
// id and value with its own — so a refusal allocates under 1 MiB.
func TestCodecRejectsAllocationBomb(t *testing.T) {
	full := newCodec(1<<20, []layerShape{{out: 1 << 12, full: true, vals: true}, {out: 1 << 16}})
	sparseOut := newCodec(1<<20, []layerShape{{out: 1 << 16}})
	for name, tc := range map[string]struct {
		c   *Codec
		buf []byte
	}{
		// 2^24 records of two 16 KiB full-layer vectors each, from 1 KiB.
		"records": {full, append(frameHead(2, 1<<24), make([]byte, 1024)...)},
		// One record declaring 2^40 features.
		"features": {sparseOut, append(binary.AppendUvarint(frameHead(1, 1), 1<<40), make([]byte, 1024)...)},
		// A sampled layer's record declaring 2^15 active ids from 64 bytes.
		"ids": {sparseOut, append(binary.AppendUvarint(append(frameHead(1, 1), 0), 1<<15), make([]byte, 64)...)},
		// 2^24 records, each at least two bytes on the wire, from 1 KiB.
		"records of nothing": {sparseOut, append(frameHead(1, 1<<24), make([]byte, 1024)...)},
	} {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := tc.c.DecodeDelta(nil, tc.buf)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("decoder accepted a declared size its payload cannot back")
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Fatalf("refusing it allocated %d bytes", alloc)
			}
		})
	}
	// The same frames' honest small versions decode.
	buf := frameHead(1, 2)
	buf = append(buf, 0, 0, 0, 0) // two records without features, then without ids
	if d, err := sparseOut.DecodeDelta(nil, buf); err != nil {
		t.Fatalf("two empty records refused: %v", err)
	} else if n, _ := d.Records(); n != 2 {
		t.Fatalf("decoded %d records, want 2", n)
	}
}

// TestCodecRejectsBadIDs: a sampled layer's ids past the layer (the diff-1
// encoding cannot express a repeat or a descent, so range is the check),
// a count above the layer's width, features past the input or below zero,
// and values fewer than the ids and features declared are rejected; the
// well-formed frame they are cut from decodes.
func TestCodecRejectsBadIDs(t *testing.T) {
	c := newCodec(16, []layerShape{{out: 10}})
	one := binary.LittleEndian.AppendUint32(nil, math.Float32bits(1))
	frame := func(feats []byte, featVals int, ids []byte, vals int) []byte {
		buf := append(frameHead(1, 1), feats...)
		for range featVals {
			buf = append(buf, one...)
		}
		buf = append(buf, ids...)
		for range vals {
			buf = append(buf, one...)
		}
		return buf
	}
	// Two features, 3 then (zigzag +2) 5, and the ids 2, 5, 9.
	good := frame([]byte{2, 6, 4}, 2, []byte{3, 2, 2, 3}, 3)
	if d, err := c.DecodeDelta(nil, good); err != nil {
		t.Fatalf("well-formed frame rejected: %v", err)
	} else if !slices.Equal(d.Input.IDs, []int32{3, 5}) || !slices.Equal(d.Layers[0].IDs, []int32{2, 5, 9}) {
		t.Fatalf("decoded features %v and ids %v, want [3 5] and [2 5 9]", d.Input.IDs, d.Layers[0].IDs)
	}
	for name, buf := range map[string][]byte{
		"id past the layer":        frame([]byte{0}, 0, []byte{3, 2, 2, 4}, 3),
		"count past the layer":     frame([]byte{0}, 0, append([]byte{11}, make([]byte, 11)...), 11),
		"feature past the input":   frame([]byte{1, 32}, 1, []byte{0}, 0),
		"feature below zero":       frame([]byte{2, 6, 13}, 2, []byte{0}, 0),
		"fewer values than ids":    frame([]byte{0}, 0, []byte{3, 2, 2, 3}, 2),
		"features without values":  frame([]byte{2, 6, 4}, 1, []byte{0}, 0),
		"second id past the layer": frame([]byte{0}, 0, []byte{2, 8, 1}, 2),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := c.DecodeDelta(nil, buf); err == nil {
				t.Fatalf("decoded a frame with %s", name)
			}
		})
	}
}

// TestCodecRejectsOverflowingIDDiff: a 64-bit varint diff that would
// wrap the id arithmetic negative must be rejected, not decoded into an
// out-of-order or negative id (which would crash ApplyDelta).
func TestCodecRejectsOverflowingIDDiff(t *testing.T) {
	c := newCodec(16, []layerShape{{out: 16}})
	buf := frameHead(1, 1)
	buf = append(buf, 0)               // no features
	buf = append(buf, 2)               // two ids
	buf = binary.AppendUvarint(buf, 5) // id 5
	// The second id's diff chosen so int64(5)+1+int64(diff) == -2.
	buf = binary.AppendUvarint(buf, 1<<63+(1<<32-8))
	buf = append(buf, make([]byte, 8)...)
	if d, err := c.DecodeDelta(nil, buf); err == nil {
		t.Fatalf("decoder accepted an overflowing id diff: ids = %v", d.Layers[0].IDs)
	}
	buf = frameHead(1, 1)
	buf = append(buf, 1)                       // one feature
	buf = binary.AppendVarint(buf, -(1 << 62)) // far below zero
	buf = append(buf, make([]byte, 5)...)
	if d, err := c.DecodeDelta(nil, buf); err == nil {
		t.Fatalf("decoder accepted an overflowing feature diff: features = %v", d.Input.IDs)
	}
}

// TestCodecRoundTripZeroAllocs pins the wire codec's steady state: with
// a reused encode buffer and a reused decode scratch delta, a full
// encode+decode round trip allocates nothing. This is the property that
// keeps the delta-exchange loop off the GC's books once its buffers have
// warmed up.
func TestCodecRoundTripZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on instrumented paths")
	}
	c := factorKinds
	d := randomRecords(rand.New(rand.NewSource(97)), c, 16)
	var buf []byte
	var scratch *core.SparseDelta
	run := func() {
		var err error
		buf, err = c.AppendDelta(buf[:0], d)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err = c.DecodeDelta(scratch, buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if !deltasEqual(d, scratch) {
		t.Fatal("round trip diverged")
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("steady-state round trip made %.1f allocs/op, want 0", allocs)
	}
}
