package dist

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// testCodec builds an fp32 codec for neuron-major layers of the given
// {neurons, fan-in} shapes without a network.
func testCodec(dims ...[2]int32) *Codec {
	return testCodecFmt(ValueFP32, dims...)
}

// testCodecFmt builds a codec for neuron-major layers with an explicit
// value format.
func testCodecFmt(f ValueFormat, dims ...[2]int32) *Codec {
	return &Codec{shapes: neuronMajor(dims), format: f}
}

// neuronMajor maps {neurons, fan-in} dims to the shapes of neuron-major
// layers: one storage row per neuron.
func neuronMajor(dims [][2]int32) []layerShape {
	shapes := make([]layerShape, len(dims))
	for i, d := range dims {
		shapes[i] = layerShape{rows: d[0], width: d[1], neurons: d[0]}
	}
	return shapes
}

// rowKinds is a network of every row kind the codec carries: column-union
// rows over a wide fan-in, input-major rows (storage rows are inputs, the
// width is the neuron count) and full-width neuron rows, with widths that
// are not multiples of 8.
var rowKinds = []layerShape{{rows: 64, width: 700, neurons: 64}, {rows: 300, width: 13, neurons: 13}, {rows: 37, width: 69, neurons: 37}}

// allFormats enumerates every negotiated wire format for table tests.
var allFormats = []ValueFormat{ValueFP32, ValueBF16, ValueTopK}

// randomDelta builds a structurally valid random delta of full-width rows
// for neuron-major dims.
func randomDelta(r *rand.Rand, dims [][2]int32) *core.SparseDelta {
	return randomRows(r, neuronMajor(dims), nil)
}

// randomRows builds a structurally valid random delta for shapes: random
// ascending row subsets, a random column set on the layers unions names,
// row blocks mixing nonzero values over several magnitudes with zeros, -0
// and all-zero rows, and random neurons whose biases are zero or not.
func randomRows(r *rand.Rand, shapes []layerShape, unions map[int]bool) *core.SparseDelta {
	d := &core.SparseDelta{Layers: make([]core.LayerDelta, len(shapes))}
	for li, sh := range shapes {
		ld := &d.Layers[li]
		w := int(sh.width)
		if unions[li] {
			ld.Cols = []int32{}
			for i := 0; i < int(sh.width); i++ {
				if r.Float64() < 0.2 {
					ld.Cols = append(ld.Cols, int32(i))
				}
			}
			w = len(ld.Cols)
		}
		for j := 0; j < int(sh.rows); j++ {
			if r.Float64() > 0.3 {
				continue
			}
			ld.Rows = append(ld.Rows, int32(j))
			zeroRow := r.Float64() < 0.1
			for range w {
				var v float32
				switch p := r.Float64(); {
				case zeroRow || p < 0.2:
				case p < 0.22:
					v = float32(math.Copysign(0, -1))
				default:
					v = float32(r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3)))
				}
				ld.Vals = append(ld.Vals, v)
			}
		}
		for j := 0; j < int(sh.neurons); j++ {
			if r.Float64() > 0.5 {
				continue
			}
			var bias float32
			if r.Float64() < 0.8 {
				bias = float32(r.NormFloat64())
			}
			ld.Neurons = append(ld.Neurons, int32(j))
			ld.Bias = append(ld.Bias, bias)
		}
	}
	return d
}

// deltasEqual compares two deltas' structure and values; a zero cell
// matches a zero cell whatever its sign (the mask carries no zeros), and
// biases compare bit for bit.
func deltasEqual(a, b *core.SparseDelta) bool {
	if len(a.Layers) != len(b.Layers) {
		return false
	}
	for li := range a.Layers {
		la, lb := &a.Layers[li], &b.Layers[li]
		if !slices.Equal(la.Rows, lb.Rows) || (la.Cols == nil) != (lb.Cols == nil) || !slices.Equal(la.Cols, lb.Cols) ||
			!slices.Equal(la.Neurons, lb.Neurons) || len(la.Vals) != len(lb.Vals) || len(la.Bias) != len(lb.Bias) {
			return false
		}
		for k, v := range la.Vals {
			if math.Float32bits(v) != math.Float32bits(lb.Vals[k]) && (v != 0 || lb.Vals[k] != 0) {
				return false
			}
		}
		for k, v := range la.Bias {
			if math.Float32bits(v) != math.Float32bits(lb.Bias[k]) {
				return false
			}
		}
	}
	return true
}

// TestCodecRoundTripProperty: for many random deltas of every row kind in
// every wire format, encode → decode reproduces the quantized delta exactly
// (zero cells as zeros) and EncodedSize predicts the exact buffer length.
// For fp32/topk the quantization is the identity; for bf16 it is Quantize —
// which must be idempotent, so the decoded delta re-encodes to the same
// bytes.
func TestCodecRoundTripProperty(t *testing.T) {
	for _, f := range allFormats {
		t.Run(f.String(), func(t *testing.T) {
			c := &Codec{shapes: rowKinds, format: f}
			r := rand.New(rand.NewSource(41))
			var buf []byte
			var scratch *core.SparseDelta
			for trial := 0; trial < 200; trial++ {
				d := randomRows(r, rowKinds, map[int]bool{0: true})
				var err error
				buf, err = c.AppendDelta(buf[:0], d)
				if err != nil {
					t.Fatalf("trial %d: encode: %v", trial, err)
				}
				if got := c.EncodedSize(d); got != len(buf) {
					t.Fatalf("trial %d: EncodedSize %d != encoded length %d", trial, got, len(buf))
				}
				scratch, err = c.DecodeDelta(scratch, buf)
				if err != nil {
					t.Fatalf("trial %d: decode: %v", trial, err)
				}
				want := d.Clone()
				c.Quantize(want) // identity except bf16
				if !deltasEqual(want, scratch) {
					t.Fatalf("trial %d: round-trip mismatch", trial)
				}
				// Quantize must be exactly the wire rounding: the decoded
				// delta re-encodes byte-identically.
				again, err := c.AppendDelta(nil, scratch)
				if err != nil {
					t.Fatalf("trial %d: re-encode: %v", trial, err)
				}
				if string(again) != string(buf) {
					t.Fatalf("trial %d: re-encoding the decoded delta changed bytes", trial)
				}
				if got := c.EncodedSize(scratch); got != len(again) {
					t.Fatalf("trial %d: EncodedSize %d != re-encoded length %d", trial, got, len(again))
				}
			}
		})
	}
}

// TestCodecBF16HalvesValueBytes: the bf16 wire format must spend exactly
// 2 bytes per value/bias where fp32 spends 4 — identical ids and masks,
// halved value blocks.
func TestCodecBF16HalvesValueBytes(t *testing.T) {
	dims := [][2]int32{{64, 700}, {256, 64}}
	d := randomDelta(rand.New(rand.NewSource(9)), dims)
	full := testCodec(dims...).EncodedSize(d)
	half := testCodecFmt(ValueBF16, dims...).EncodedSize(d)
	values := 0
	for li := range d.Layers {
		for _, v := range d.Layers[li].Vals {
			if v != 0 {
				values++
			}
		}
		values += len(d.Layers[li].Bias)
	}
	if full-half != 2*values {
		t.Fatalf("bf16 saves %d bytes over fp32, want exactly 2 per value = %d", full-half, 2*values)
	}
	if topk := testCodecFmt(ValueTopK, dims...).EncodedSize(d); topk != full {
		t.Fatalf("topk frame size %d differs from fp32 %d for the same delta", topk, full)
	}
}

// TestCodecCompactness: at SLIDE sparsity the wire size must sit far
// below dense parameter sync and below the 8-bytes-per-cell index+value
// estimate the dist-comm experiment historically reported.
func TestCodecCompactness(t *testing.T) {
	dims := [][2]int32{{64, 10000}, {20000, 64}}
	c := testCodec(dims...)
	r := rand.New(rand.NewSource(7))
	d := &core.SparseDelta{Layers: make([]core.LayerDelta, 2)}
	// Layer 1: 200 of 20000 rows touched, each a full 64-column row — the
	// SLIDE output-layer shape.
	ld := &d.Layers[1]
	for j := 0; j < 20000; j += 100 {
		ld.Rows = append(ld.Rows, int32(j))
		for i := 0; i < 64; i++ {
			ld.Vals = append(ld.Vals, float32(r.NormFloat64()))
		}
		ld.Neurons = append(ld.Neurons, int32(j))
		ld.Bias = append(ld.Bias, float32(r.NormFloat64()))
	}

	size := c.EncodedSize(d)
	cells := int(d.Cells())
	if perCell := float64(size) / float64(cells); perCell > 8 {
		t.Fatalf("codec spends %.2f bytes/cell, above the 8 B index+value estimate", perCell)
	}
	dense := 4 * (64*10000 + 20000*64)
	if size >= dense/50 {
		t.Fatalf("sparse encoding %d B is not ≥50x below dense sync %d B", size, dense)
	}
}

// TestCodecRejectsMalformed: truncations, bad magic, wrong shapes and
// out-of-range ids all error instead of panicking or silently passing —
// in every wire format.
func TestCodecRejectsMalformed(t *testing.T) {
	dims := [][2]int32{{16, 32}}
	for _, f := range allFormats {
		t.Run(f.String(), func(t *testing.T) {
			c := testCodecFmt(f, dims...)
			d := randomDelta(rand.New(rand.NewSource(3)), dims)
			buf, err := c.AppendDelta(nil, d)
			if err != nil {
				t.Fatal(err)
			}

			if _, err := c.DecodeDelta(nil, nil); err == nil {
				t.Fatal("decoded empty buffer")
			}
			for cut := 1; cut < len(buf); cut++ {
				if _, err := c.DecodeDelta(nil, buf[:len(buf)-cut]); err == nil {
					t.Fatalf("decoded %d-byte truncation", cut)
				}
			}
			bad := append([]byte(nil), buf...)
			bad[0] ^= 0xff
			if _, err := c.DecodeDelta(nil, bad); err == nil {
				t.Fatal("decoded bad magic")
			}
			if _, err := c.DecodeDelta(nil, append(append([]byte(nil), buf...), 0)); err == nil {
				t.Fatal("decoded trailing garbage")
			}
			other := testCodecFmt(f, [2]int32{16, 32}, [2]int32{8, 16})
			if _, err := other.DecodeDelta(nil, buf); err == nil {
				t.Fatal("decoded delta with wrong layer count")
			}
			// Out-of-range or out-of-order ids and short row blocks on
			// encode.
			for name, ld := range map[string]core.LayerDelta{
				"out-of-range row":         {Rows: []int32{16}, Vals: make([]float32, 32)},
				"descending rows":          {Rows: []int32{3, 2}, Vals: make([]float32, 64)},
				"short row block":          {Rows: []int32{1, 2}, Vals: make([]float32, 32)},
				"out-of-range column":      {Rows: []int32{1}, Cols: []int32{32}, Vals: []float32{1}},
				"non-ascending column set": {Rows: []int32{1}, Cols: []int32{4, 4}, Vals: []float32{1, 2}},
				"out-of-range neuron":      {Neurons: []int32{16}, Bias: []float32{1}},
				"bias count":               {Neurons: []int32{1}, Bias: []float32{1, 2}},
			} {
				bad := &core.SparseDelta{Layers: []core.LayerDelta{ld}}
				if _, err := c.AppendDelta(nil, bad); err == nil {
					t.Fatalf("encoded a delta with %s", name)
				}
			}
		})
	}
}

// TestCodecRejectsFormatMismatch: compression is negotiated, not sniffed
// — a decoder built for one value format must reject frames stamped with
// another (the formats disagree on value width, so accepting one would
// merge garbage), and an unknown format byte is rejected outright.
func TestCodecRejectsFormatMismatch(t *testing.T) {
	dims := [][2]int32{{16, 32}}
	d := randomDelta(rand.New(rand.NewSource(5)), dims)
	for _, enc := range allFormats {
		buf, err := testCodecFmt(enc, dims...).AppendDelta(nil, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, dec := range allFormats {
			if enc == dec {
				continue
			}
			if _, err := testCodecFmt(dec, dims...).DecodeDelta(nil, buf); err == nil {
				t.Fatalf("%v decoder accepted a %v frame", dec, enc)
			}
		}
		// Unknown format byte (the byte after the 4-byte magic).
		bad := append([]byte(nil), buf...)
		bad[4] = 0xff
		if _, err := testCodecFmt(enc, dims...).DecodeDelta(nil, bad); err == nil {
			t.Fatal("decoded a frame with an unknown format byte")
		}
	}
}

// FuzzDecodeDelta drives every format's decoder with arbitrary bytes:
// none may panic, and anything a decoder accepts must re-encode and
// re-decode to the same delta (for bf16 that pins Quantize's
// idempotence — accepted wire values are exactly representable).
func FuzzDecodeDelta(f *testing.F) {
	shapes := []layerShape{{rows: 16, width: 600, neurons: 16}, {rows: 40, width: 11, neurons: 11}, {rows: 64, width: 16, neurons: 64}}
	codecs := make([]*Codec, len(allFormats))
	for i, vf := range allFormats {
		codecs[i] = &Codec{shapes: shapes, format: vf}
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		d := randomRows(r, shapes, map[int]bool{0: i%2 == 0})
		for _, c := range codecs {
			seed, err := c.AppendDelta(nil, d)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(seed)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{'S', 'D', 'L', '0' + codecVersion, 0xff, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			d, err := c.DecodeDelta(nil, data)
			if err != nil {
				continue
			}
			buf, err := c.AppendDelta(nil, d)
			if err != nil {
				t.Fatalf("%v: accepted delta failed to re-encode: %v", c.Format(), err)
			}
			again, err := c.DecodeDelta(nil, buf)
			if err != nil {
				t.Fatalf("%v: re-encoded delta failed to decode: %v", c.Format(), err)
			}
			if !deltasEqual(d, again) {
				t.Fatalf("%v: decode/encode/decode not stable", c.Format())
			}
		}
	})
}

// frameHead starts a hand-built one-layer fp32 frame: magic, format and
// layer count.
func frameHead() []byte {
	buf := append([]byte(nil), codecMagic[:]...)
	buf = append(buf, byte(ValueFP32))
	return binary.AppendUvarint(buf, 1)
}

// TestCodecRejectsAllocationBomb: a few header bytes declaring a huge
// row block must be rejected before the decoder allocates the declared
// space — the payload has to back every declared row with its id and mask.
func TestCodecRejectsAllocationBomb(t *testing.T) {
	c := testCodec([2]int32{1 << 16, 1 << 12})
	buf := frameHead()
	buf = binary.AppendUvarint(buf, 1<<16) // every row touched, 2^28 cells...
	buf = append(buf, 0)                   // ...at full width
	buf = append(buf, make([]byte, 1024)...)
	if _, err := c.DecodeDelta(nil, buf); err == nil {
		t.Fatal("decoder accepted a 256M-cell row block backed by 1 KiB")
	}
	buf = frameHead()
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.AppendUvarint(buf, 1<<12+1) // a full column set...
	buf = append(buf, make([]byte, 64)...)   // ...backed by 64 ids
	if _, err := c.DecodeDelta(nil, buf); err == nil {
		t.Fatal("decoder accepted a 4K-column set backed by 64 bytes")
	}
}

// TestCodecRejectsBadRows: a mask bit past the row width, a value count
// other than the mask's popcount and a column set out of range are all
// rejected; the well-formed frame they are cut from decodes.
func TestCodecRejectsBadRows(t *testing.T) {
	c := testCodec([2]int32{4, 13})
	one := binary.LittleEndian.AppendUint32(nil, math.Float32bits(1))
	frame := func(cols []byte, mask []byte, values int, tail ...byte) []byte {
		buf := frameHead()
		buf = binary.AppendUvarint(buf, 1) // one row
		buf = append(buf, cols...)
		buf = append(buf, 2) // row 2
		buf = append(buf, mask...)
		for range values {
			buf = append(buf, one...)
		}
		buf = append(buf, 0) // no neurons
		return append(buf, tail...)
	}
	full := []byte{0}
	if d, err := c.DecodeDelta(nil, frame(full, []byte{0x03, 0x10}, 3)); err != nil {
		t.Fatalf("well-formed frame rejected: %v", err)
	} else if ld := d.Layers[0]; ld.Vals[0] != 1 || ld.Vals[1] != 1 || ld.Vals[12] != 1 || ld.Vals[2] != 0 {
		t.Fatalf("decoded row %v, want ones at 0, 1 and 12", ld.Vals)
	}
	for name, buf := range map[string][]byte{
		"mask bit past width":      frame(full, []byte{0x03, 0x20}, 3),
		"fewer values than bits":   frame(full, []byte{0x03, 0x10}, 2),
		"more values than bits":    frame(full, []byte{0x03, 0x10}, 4),
		"column out of range":      frame([]byte{2, 13}, []byte{0x01}, 1),
		"column set beyond width":  frame([]byte{15, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{0x01, 0}, 1),
		"columns past their range": frame([]byte{3, 11, 1}, []byte{0x03}, 2),
	} {
		if _, err := c.DecodeDelta(nil, buf); err == nil {
			t.Fatalf("decoded a frame with %s", name)
		}
	}
}

// TestCodecRejectsOverflowingIDDiff: a 64-bit varint diff that would
// wrap the id arithmetic negative must be rejected, not decoded into an
// out-of-order or negative id (which would crash ApplyDelta or silently
// truncate a merge downstream).
func TestCodecRejectsOverflowingIDDiff(t *testing.T) {
	c := testCodec([2]int32{16, 32})
	buf := frameHead()
	buf = binary.AppendUvarint(buf, 2) // two rows
	buf = append(buf, 0)               // full width
	buf = binary.AppendUvarint(buf, 5) // row 5
	buf = append(buf, 0, 0, 0, 0)      // no cells
	// Second row's diff chosen so int64(5)+1+int64(diff) == -2.
	buf = binary.AppendUvarint(buf, 1<<63+(1<<32-8))
	buf = append(buf, 0, 0, 0, 0) // no cells
	buf = binary.AppendUvarint(buf, 0)
	if d, err := c.DecodeDelta(nil, buf); err == nil {
		t.Fatalf("decoder accepted an overflowing row diff: rows = %v", d.Layers[0].Rows)
	}
}

// TestCodecRoundTripZeroAllocs pins the wire codec's steady state: with
// a reused encode buffer and a reused decode scratch delta, a full
// encode+decode round trip allocates nothing in any negotiated format.
// This is the property that keeps the delta-exchange loop off the GC's
// books once its buffers have warmed up.
func TestCodecRoundTripZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on instrumented paths")
	}
	for _, f := range allFormats {
		t.Run(f.String(), func(t *testing.T) {
			c := &Codec{shapes: rowKinds, format: f}
			r := rand.New(rand.NewSource(97))
			d := randomRows(r, rowKinds, map[int]bool{0: true})
			c.Quantize(d)
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
		})
	}
}
