package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// testCodec builds a codec for neuron-major layers of the given
// {neurons, fan-in} shapes without a network.
func testCodec(dims ...[2]int32) *Codec {
	return &Codec{shapes: neuronMajor(dims)}
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

// TestCodecRoundTripProperty: for many random deltas of every row kind,
// encode → decode reproduces the delta exactly (zero cells as zeros), and
// the decoded delta re-encodes to the same bytes.
func TestCodecRoundTripProperty(t *testing.T) {
	c := &Codec{shapes: rowKinds}
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

	buf, err := c.AppendDelta(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	size := len(buf)
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
// out-of-range ids all error instead of panicking or silently passing.
func TestCodecRejectsMalformed(t *testing.T) {
	dims := [][2]int32{{16, 32}}
	c := testCodec(dims...)
	d := randomDelta(rand.New(rand.NewSource(3)), dims)
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
		other := testCodec([2]int32{16, 32}, [2]int32{8, 16})
		if _, err := other.DecodeDelta(nil, buf); err == nil {
			t.Fatal("decoded delta with wrong layer count")
		}
	})
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
		t.Run(name, func(t *testing.T) {
			bad := &core.SparseDelta{Layers: []core.LayerDelta{ld}}
			if _, err := c.AppendDelta(nil, bad); err == nil {
				t.Fatalf("encoded a delta with %s", name)
			}
		})
	}
}

// TestCodecRefusesOtherVersions: a frame opened by another codec
// version's magic — v3's carried a value-format byte, which this decoder
// would misread as the layer count — is refused before its body is read.
func TestCodecRefusesOtherVersions(t *testing.T) {
	dims := [][2]int32{{16, 32}}
	c := testCodec(dims...)
	buf, err := c.AppendDelta(nil, randomDelta(rand.New(rand.NewSource(5)), dims))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeDelta(nil, buf); err != nil {
		t.Fatalf("own frame rejected: %v", err)
	}
	v3 := append([]byte{'S', 'D', 'L', '3', 0}, buf[len(codecMagic):]...)
	if _, err := c.DecodeDelta(nil, v3); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("v3 frame: err = %v, want a bad-magic refusal", err)
	}
}

// TestCodecRejectsNonFinite: a NaN or ±Inf gradient value or bias — one
// corrupt frame, or the delta of a replica whose training diverged — is
// refused with an error naming its layer and row or neuron, wherever the
// value sits in its row, instead of being merged into every replica's
// weights.
func TestCodecRejectsNonFinite(t *testing.T) {
	dims := [][2]int32{{8, 40}, {16, 37}}
	c := testCodec(dims...)
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			for k := 0; k < 37; k++ {
				d := randomDelta(rand.New(rand.NewSource(int64(k))), dims)
				ld := &d.Layers[1]
				ld.Rows, ld.Vals = []int32{3, 5}, make([]float32, 2*37)
				for i := range ld.Vals {
					ld.Vals[i] = float32(i + 1)
				}
				ld.Vals[37+k] = bad
				buf, err := c.AppendDelta(nil, d)
				if err != nil {
					t.Fatal(err)
				}
				_, err = c.DecodeDelta(nil, buf)
				if err == nil || !strings.Contains(err.Error(), "layer 1: row 5:") {
					t.Fatalf("cell %d: err = %v, want a refusal naming layer 1, row 5", k, err)
				}
			}
			d := randomDelta(rand.New(rand.NewSource(1)), dims)
			d.Layers[0].Neurons, d.Layers[0].Bias = []int32{2, 6}, []float32{1, bad}
			buf, err := c.AppendDelta(nil, d)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.DecodeDelta(nil, buf); err == nil || !strings.Contains(err.Error(), "layer 0: neuron 6:") {
				t.Fatalf("bias: err = %v, want a refusal naming layer 0, neuron 6", err)
			}
		})
	}
}

// TestCodecAcceptsFiniteExtremes: the non-finite check refuses only an
// all-ones exponent. The largest finite magnitudes, subnormals and -0 in
// a row, and the same extremes as biases, decode as sent.
func TestCodecAcceptsFiniteExtremes(t *testing.T) {
	dims := [][2]int32{{4, 21}}
	c := testCodec(dims...)
	for name, v := range map[string]float32{
		"max":                math.MaxFloat32,
		"-max":               -math.MaxFloat32,
		"smallest normal":    math.Float32frombits(0x00800000),
		"largest subnormal":  math.Float32frombits(0x007fffff),
		"smallest subnormal": math.SmallestNonzeroFloat32,
		"-0":                 float32(math.Copysign(0, -1)),
	} {
		t.Run(name, func(t *testing.T) {
			for k := 0; k < 21; k++ {
				d := &core.SparseDelta{Layers: []core.LayerDelta{{
					Rows: []int32{1}, Vals: make([]float32, 21),
					Neurons: []int32{0, 3}, Bias: []float32{v, -v},
				}}}
				for i := range d.Layers[0].Vals {
					d.Layers[0].Vals[i] = float32(i + 1)
				}
				d.Layers[0].Vals[k] = v
				buf, err := c.AppendDelta(nil, d)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.DecodeDelta(nil, buf)
				if err != nil {
					t.Fatalf("cell %d: %v", k, err)
				}
				if !deltasEqual(d, got) {
					t.Fatalf("cell %d: decoded %v, want %v", k, got.Layers[0], d.Layers[0])
				}
			}
		})
	}
}

// allFinite reports whether every value and bias of d is finite.
func allFinite(d *core.SparseDelta) bool {
	for li := range d.Layers {
		for _, vs := range [][]float32{d.Layers[li].Vals, d.Layers[li].Bias} {
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
	shapes := []layerShape{{rows: 16, width: 600, neurons: 16}, {rows: 40, width: 11, neurons: 11}, {rows: 64, width: 16, neurons: 64}}
	c := &Codec{shapes: shapes}
	r := rand.New(rand.NewSource(11))
	var seedFrame []byte
	for i := 0; i < 8; i++ {
		d := randomRows(r, shapes, map[int]bool{0: i%2 == 0})
		if i >= 4 {
			// A non-finite value for the fuzzer to move around.
			if ld := &d.Layers[i%3]; len(ld.Vals) > 0 {
				ld.Vals[len(ld.Vals)/2] = float32(math.Inf(1 - 2*(i%2)))
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
	f.Add([]byte{'S', 'D', 'L', '0' + codecVersion, 2})
	f.Add(append([]byte{'S', 'D', 'L', '3', 0}, seedFrame[len(codecMagic):]...)) // a v3 frame
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := c.DecodeDelta(nil, data)
		if err != nil {
			return
		}
		if !allFinite(d) {
			t.Fatal("accepted a delta with a non-finite value or bias")
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

// frameHead starts a hand-built one-layer frame: magic and layer count.
func frameHead() []byte {
	buf := append([]byte(nil), codecMagic[:]...)
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
		t.Run(name, func(t *testing.T) {
			if _, err := c.DecodeDelta(nil, buf); err == nil {
				t.Fatalf("decoded a frame with %s", name)
			}
		})
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
// encode+decode round trip allocates nothing. This is the property that
// keeps the delta-exchange loop off the GC's books once its buffers have
// warmed up.
func TestCodecRoundTripZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on instrumented paths")
	}
	c := &Codec{shapes: rowKinds}
	d := randomRows(rand.New(rand.NewSource(97)), rowKinds, map[int]bool{0: true})
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
