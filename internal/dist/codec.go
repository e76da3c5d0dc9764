// Package dist implements data-parallel SLIDE training over sparse
// gradient exchange — the paper's §6 closing argument ("a distributed
// implementation of SLIDE would be very appealing because the
// communication costs are minimal due to sparse gradients") turned into a
// code path, following the low-bandwidth CPU-cluster design of
// "Distributed SLIDE" (arXiv:2201.12667).
//
// The package provides three layers:
//
//   - Codec: a compact binary wire format for core.SparseDelta — per
//     touched storage row a varint-delta row id, a presence mask over the
//     row's columns and the present gradient values as exact fp32 — with
//     full validation on decode: the network's layer shapes bound every
//     id, and a NaN or ±Inf value or bias is refused.
//   - Exchangers: core.DeltaExchanger implementations. Mesh is the
//     in-process all-reduce for N replicas in one process (and, with one
//     shard, a loopback measurement tap); TCPServer/TCPClient are the
//     multi-process hub transport over length-prefixed frames.
//   - TrainSharded: the sharded training driver — N identical replicas,
//     round-robin data shards, per-batch delta exchange, replicas' weights
//     in bitwise lockstep.
package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/vecmath"
)

// codecVersion identifies the wire format; bump on incompatible change.
// Both magics carry it, so a frame or a rank of another version is
// refused instead of misread.
const codecVersion = 4

// codecMagic opens every encoded delta ("SDL" + version).
var codecMagic = [4]byte{'S', 'D', 'L', '0' + codecVersion}

// Codec encodes and decodes SparseDeltas for a fixed network shape. The
// per-layer storage shapes bound every id on decode, and every value must
// be finite, so a malformed or hostile payload — or the delta of a replica
// whose training diverged — is rejected rather than applied to every
// replica's weights.
//
// Wire format, all little-endian:
//
//	magic[4]
//	uvarint layerCount
//	per layer:
//	  uvarint rowCount
//	  uvarint colCount+1, or 0 for full-width rows
//	  colCount uvarints: first column raw, then (diff-1) to the previous
//	  per row:
//	    uvarint row id: first raw, then (diff-1) to the previous
//	    mask[ceil(width/8)]: bit k%8 of byte k/8 set when cell k is nonzero
//	    one value per set bit, in cell order
//	  uvarint neuronCount
//	  neuronCount uvarints: first neuron raw, then (diff-1)
//	  neuronCount values: bias gradients
//
// where width is colCount, or the layer's storage row width for full-width
// rows, and a "value" is a 4-byte float32. A ±0 cell is left out of the
// mask: zero carries no gradient. Ids are strictly ascending (ExtractDelta
// and MergeDeltas guarantee it), so the diff-1 encoding is total.
type Codec struct {
	shapes []layerShape
}

// layerShape is one layer's delta shape: storage rows, their full width,
// and the neurons that carry biases.
type layerShape struct {
	rows, width, neurons int32
}

// NewCodec builds a codec for the network's layer shapes.
func NewCodec(n *core.Network) *Codec {
	shapes := make([]layerShape, n.NumLayers())
	for i := range shapes {
		l := n.Layer(i)
		rows, width := l.StorageShape()
		shapes[i] = layerShape{rows: int32(rows), width: int32(width), neurons: int32(l.Out())}
	}
	return &Codec{shapes: shapes}
}

// rowWidth returns the row width of ld on layer li: its column count, or
// the storage row width.
func (c *Codec) rowWidth(li int, ld *core.LayerDelta) int {
	if ld.Cols != nil {
		return len(ld.Cols)
	}
	return int(c.shapes[li].width)
}

// EncodedSize returns the exact number of bytes AppendDelta would emit
// for d — the measured per-batch communication payload, without
// allocating the buffer. d must be well-formed.
func (c *Codec) EncodedSize(d *core.SparseDelta) int {
	size := len(codecMagic) + uvarintLen(uint64(len(d.Layers)))
	for li := range d.Layers {
		ld := &d.Layers[li]
		size += uvarintLen(uint64(len(ld.Rows)))
		if ld.Cols == nil {
			size++
		} else {
			size += uvarintLen(uint64(len(ld.Cols))+1) + diffsLen(ld.Cols)
		}
		size += diffsLen(ld.Rows) + len(ld.Rows)*vecmath.MaskLen(c.rowWidth(li, ld)) + 4*vecmath.CountNonZero(ld.Vals)
		size += uvarintLen(uint64(len(ld.Neurons))) + diffsLen(ld.Neurons) + 4*len(ld.Bias)
	}
	return size
}

// maxSize bounds the encoded size of d from its lengths alone, for sizing
// the buffer once: every id at its longest, every value present.
func (c *Codec) maxSize(d *core.SparseDelta) int {
	const id = binary.MaxVarintLen32
	size := len(codecMagic) + binary.MaxVarintLen64
	for li := range d.Layers {
		ld := &d.Layers[li]
		w := c.rowWidth(li, ld)
		size += 3*binary.MaxVarintLen64 + id*(len(ld.Cols)+len(ld.Rows)+len(ld.Neurons)) +
			len(ld.Rows)*(vecmath.MaskLen(w)+4*w) + 4*len(ld.Bias)
	}
	return size
}

// diffsLen returns the encoded size of a strictly ascending id list's
// diff-1 uvarints.
func diffsLen(ids []int32) int {
	size := 0
	prev := int32(-1)
	for _, id := range ids {
		size += uvarintLen(uint64(id - prev - 1))
		prev = id
	}
	return size
}

// appendIDs emits the uvarint tag, then a strictly ascending id list below
// n as its diff-1 uvarints.
func appendIDs(buf []byte, tag uint64, ids []int32, n int32) ([]byte, error) {
	buf = binary.AppendUvarint(buf, tag)
	prev := int32(-1)
	for _, id := range ids {
		if id <= prev || id >= n {
			return buf, fmt.Errorf("id %d out of order or range [0,%d)", id, n)
		}
		buf = binary.AppendUvarint(buf, uint64(id-prev-1))
		prev = id
	}
	return buf, nil
}

// AppendDelta appends d's encoding to buf and returns the extended
// buffer. The delta must satisfy the producer invariants (ascending
// in-range ids, a row block of rows × width values); violations are
// reported rather than silently emitting an undecodable payload.
func (c *Codec) AppendDelta(buf []byte, d *core.SparseDelta) ([]byte, error) {
	if len(d.Layers) != len(c.shapes) {
		return buf, fmt.Errorf("dist: encoding delta with %d layers, codec has %d", len(d.Layers), len(c.shapes))
	}
	buf = slices.Grow(buf, c.maxSize(d))
	buf = append(buf, codecMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(d.Layers)))
	for li := range d.Layers {
		var err error
		if buf, err = c.appendLayer(buf, li, &d.Layers[li]); err != nil {
			return buf, fmt.Errorf("dist: layer %d: %w", li, err)
		}
	}
	return buf, nil
}

func (c *Codec) appendLayer(buf []byte, li int, ld *core.LayerDelta) ([]byte, error) {
	sh := c.shapes[li]
	w := c.rowWidth(li, ld)
	if len(ld.Vals) != len(ld.Rows)*w || len(ld.Bias) != len(ld.Neurons) {
		return buf, fmt.Errorf("inconsistent delta: %d rows of %d, %d values, %d neurons, %d biases",
			len(ld.Rows), w, len(ld.Vals), len(ld.Neurons), len(ld.Bias))
	}
	buf = binary.AppendUvarint(buf, uint64(len(ld.Rows)))
	var err error
	if ld.Cols == nil {
		buf = append(buf, 0)
	} else if buf, err = appendIDs(buf, uint64(len(ld.Cols))+1, ld.Cols, sh.width); err != nil {
		return buf, fmt.Errorf("columns: %w", err)
	}
	prev := int32(-1)
	for r, row := range ld.Rows {
		if row <= prev || row >= sh.rows {
			return buf, fmt.Errorf("row %d out of order or range [0,%d)", row, sh.rows)
		}
		buf = binary.AppendUvarint(buf, uint64(row-prev-1))
		prev = row
		buf = appendRow(buf, ld.Vals[r*w:(r+1)*w])
	}
	if buf, err = appendIDs(buf, uint64(len(ld.Neurons)), ld.Neurons, sh.neurons); err != nil {
		return buf, fmt.Errorf("neurons: %w", err)
	}
	for _, b := range ld.Bias {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(b))
	}
	return buf, nil
}

// appendRow emits one row's presence mask and present values.
func appendRow(buf []byte, vals []float32) []byte {
	mb := vecmath.MaskLen(len(vals))
	n := len(buf)
	buf = slices.Grow(buf, mb+4*len(vals))[:n+mb+4*len(vals)]
	p := vecmath.PackNonZero(buf[n+mb:], buf[n:n+mb], vals)
	return buf[:n+mb+p]
}

// DecodeDelta decodes buf into dst (reused when non-nil) with full
// validation: magic (so a frame of another codec version is refused),
// layer count, ascending in-range ids, masks within the row width, a
// payload that backs every declared row, and finite values and biases —
// the error names the layer and the row or neuron of a NaN or ±Inf. The
// returned delta satisfies every ApplyDelta and MergeDeltas precondition.
func (c *Codec) DecodeDelta(dst *core.SparseDelta, buf []byte) (*core.SparseDelta, error) {
	if dst == nil {
		dst = &core.SparseDelta{}
	}
	r := reader{buf: buf}
	// Compare the magic in place: copying it into a local array would
	// move the array to the heap (its slice feeds the error format),
	// putting one allocation on every decode.
	if len(r.buf) < len(codecMagic) || string(r.buf[:len(codecMagic)]) != string(codecMagic[:]) {
		if len(r.buf) < len(codecMagic) {
			return dst, fmt.Errorf("dist: short delta frame (%d bytes)", len(r.buf))
		}
		return dst, fmt.Errorf("dist: bad delta magic %q", r.buf[:len(codecMagic)])
	}
	r.buf = r.buf[len(codecMagic):]
	layers, err := r.uvarint()
	if err != nil {
		return dst, err
	}
	if layers != uint64(len(c.shapes)) {
		return dst, fmt.Errorf("dist: delta has %d layers, codec has %d", layers, len(c.shapes))
	}
	resizeLayers(dst, int(layers))
	for li := range dst.Layers {
		if err := c.decodeLayer(&r, li, &dst.Layers[li]); err != nil {
			return dst, fmt.Errorf("dist: layer %d: %w", li, err)
		}
	}
	if len(r.buf) != 0 {
		return dst, fmt.Errorf("dist: %d trailing bytes after delta", len(r.buf))
	}
	return dst, nil
}

// readIDs decodes a diff-1 id list of count ids into dst (reused), each
// below n.
func readIDs(r *reader, dst []int32, count uint64, n int32) ([]int32, error) {
	// Every id takes at least one byte: a count the payload cannot back is
	// rejected before the allocation.
	if count > uint64(n) || count > uint64(len(r.buf)) {
		return dst, fmt.Errorf("%d ids exceed range %d or the %d-byte payload", count, n, len(r.buf))
	}
	dst = grow(dst, int(count))
	prev := int64(-1)
	for i := range dst {
		id, err := nextID(r, prev, n)
		if err != nil {
			return dst, err
		}
		dst[i] = int32(id)
		prev = id
	}
	return dst, nil
}

// nextID reads the diff-1 uvarint of the id after prev and checks that the
// id is below n.
func nextID(r *reader, prev int64, n int32) (int64, error) {
	diff, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	// Reject the diff before the addition: a diff >= n cannot yield an
	// in-range id, and an unchecked 64-bit diff would overflow the sum
	// negative and slip past the range check.
	if diff >= uint64(n) || prev+1+int64(diff) >= int64(n) {
		return 0, fmt.Errorf("id diff %d after id %d out of range [0,%d)", diff, prev, n)
	}
	return prev + 1 + int64(diff), nil
}

func (c *Codec) decodeLayer(r *reader, li int, ld *core.LayerDelta) error {
	sh := c.shapes[li]
	nr, err := r.uvarint()
	if err != nil {
		return err
	}
	if nr > uint64(sh.rows) {
		return fmt.Errorf("%d rows exceeds the layer's %d", nr, sh.rows)
	}
	colsTag, err := r.uvarint()
	if err != nil {
		return err
	}
	w := int(sh.width)
	if colsTag == 0 {
		ld.Cols = nil
	} else {
		if ld.Cols, err = readIDs(r, ld.Cols, colsTag-1, sh.width); err != nil {
			return fmt.Errorf("columns: %w", err)
		}
		if ld.Cols == nil {
			ld.Cols = []int32{} // an empty column set, not full width
		}
		w = len(ld.Cols)
	}
	// Guard the allocation against a header that declares far more rows
	// than the payload could possibly back: every row takes at least a
	// one-byte id and its mask. Without this, a few hostile header bytes
	// could demand a rows*width-value allocation.
	mb := vecmath.MaskLen(w)
	if nr*uint64(1+mb) > uint64(len(r.buf)) {
		return fmt.Errorf("declared %d rows of %d exceed the %d-byte payload", nr, w, len(r.buf))
	}
	ld.Rows = grow(ld.Rows, int(nr))
	ld.Vals = grow(ld.Vals, int(nr)*w)
	prev := int64(-1)
	for i := range ld.Rows {
		row, err := nextID(r, prev, sh.rows)
		if err != nil {
			return fmt.Errorf("rows: %w", err)
		}
		ld.Rows[i] = int32(row)
		prev = row
		if err := readRow(r, ld.Vals[i*w:(i+1)*w]); err != nil {
			return fmt.Errorf("row %d: %w", row, err)
		}
	}
	nn, err := r.uvarint()
	if err != nil {
		return err
	}
	if ld.Neurons, err = readIDs(r, ld.Neurons, nn, sh.neurons); err != nil {
		return fmt.Errorf("neurons: %w", err)
	}
	if len(ld.Neurons)*4 > len(r.buf) {
		return fmt.Errorf("%d biases exceed the %d-byte payload", len(ld.Neurons), len(r.buf))
	}
	ld.Bias = grow(ld.Bias, len(ld.Neurons))
	for i, j := range ld.Neurons {
		b := math.Float32frombits(binary.LittleEndian.Uint32(r.buf[4*i:]))
		if math.IsNaN(float64(b)) || math.IsInf(float64(b), 0) {
			return fmt.Errorf("neuron %d: non-finite bias", j)
		}
		ld.Bias[i] = b
	}
	r.buf = r.buf[4*len(ld.Bias):]
	return nil
}

// readRow decodes one row's mask and present values into vals, zeroing the
// absent cells. A mask bit past the row's width is rejected, the payload
// must hold a value for every set bit, and every value must be finite.
func readRow(r *reader, vals []float32) error {
	mb := vecmath.MaskLen(len(vals))
	if len(r.buf) < mb {
		return fmt.Errorf("truncated mask")
	}
	mask := r.buf[:mb]
	if tail := len(vals) % 8; tail != 0 && mask[mb-1]>>tail != 0 {
		return fmt.Errorf("mask bit set past width %d", len(vals))
	}
	src := r.buf[mb:]
	present := popcount(mask)
	need := present * 4
	if len(src) < need {
		return fmt.Errorf("truncated values: %d present, %d bytes", present, len(src))
	}
	r.buf = src[need:]
	if _, finite := vecmath.UnpackNonZero(vals, mask, src); !finite {
		return fmt.Errorf("non-finite gradient value")
	}
	return nil
}

// popcount returns the number of set bits in mask.
func popcount(mask []byte) int {
	n := 0
	for ; len(mask) >= 8; mask = mask[8:] {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(mask))
	}
	for _, m := range mask {
		n += bits.OnesCount8(m)
	}
	return n
}

// resizeLayers sets the delta's layer count, reusing backing arrays.
func resizeLayers(d *core.SparseDelta, layers int) {
	if cap(d.Layers) < layers {
		d.Layers = make([]core.LayerDelta, layers)
	}
	d.Layers = d.Layers[:layers]
}

// grow returns s resized to n elements, reusing capacity.
func grow[T int32 | float32](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reader is a bounds-checked sequential decoder.
type reader struct{ buf []byte }

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, fmt.Errorf("dist: truncated or overlong varint")
	}
	r.buf = r.buf[n:]
	return v, nil
}

// uvarintLen returns the encoded length of x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
