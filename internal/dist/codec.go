// Package dist implements data-parallel SLIDE training over sparse
// gradient exchange — the paper's §6 closing argument ("a distributed
// implementation of SLIDE would be very appealing because the
// communication costs are minimal due to sparse gradients") turned into a
// code path, following the low-bandwidth CPU-cluster design of
// "Distributed SLIDE" (arXiv:2201.12667).
//
// The package provides three layers:
//
//   - Codec: a compact binary wire format for core.SparseDelta, a
//     batch's records as their sufficient factors — per element its
//     features, and per layer its active ids, δ and activations — with
//     varint-delta ids and exact fp32 values, and full validation on
//     decode: the network's layer shapes bound every id and length, and
//     a NaN or ±Inf value is refused.
//   - Exchangers: TCPServer/TCPClient, the one core.DeltaExchanger
//     transport: peer rounds over length-prefixed frames, where every
//     rank sends its own records to every peer and concatenates all
//     ranks' records itself, in rank order, so every rank folds the same
//     records into the same Adam step.
//   - TrainSharded: the in-process sharded training driver — N identical
//     replicas on round-robin data shards, connected over loopback TCP
//     exactly as N slide-train -dist processes are, with the replicas'
//     weights in bitwise lockstep.
package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/vecmath"
)

// codecVersion identifies the wire format; bump on incompatible change.
// Both magics carry it, so a frame or a rank of another version is
// refused instead of misread.
const codecVersion = 5

// codecMagic opens every encoded delta ("SDL" + version).
var codecMagic = [4]byte{'S', 'D', 'L', '0' + codecVersion}

// Codec encodes and decodes SparseDeltas for a fixed network shape. The
// layer shapes bound every id and length on decode, and every value must
// be finite, so a malformed or hostile payload — or the delta of a replica
// whose training diverged — is rejected rather than applied to every
// replica's weights.
//
// Wire format, all little-endian:
//
//	magic[4]
//	uvarint layerCount
//	uvarint recordCount
//	features, per record:
//	  uvarint count
//	  count varints: each id minus the record's previous id (the first
//	  minus 0), so any feature order round-trips
//	then every record's feature values, record after record
//	per layer:
//	  a sampled layer, per record:
//	    uvarint count
//	    count uvarints: first id raw, then (diff-1) to the previous
//	  every record's δ: count values, or the layer's width on a full layer
//	  every layer but the last: every record's activations, aligned as δ
//
// where a "value" is a 4-byte float32, sent exactly. A sampled layer's
// ids are strictly ascending (the forward pass emits them so), so the
// diff-1 encoding is total.
type Codec struct {
	inputs int32
	layers []layerShape
	// minRecord is the fewest bytes a record takes on the wire: a feature
	// count, and per layer an id count or a full layer's values.
	minRecord int
}

// layerShape is one layer's factor shape: its neuron count, whether every
// neuron is active (an unsampled layer carries no ids), and whether its
// activations ship (every layer but the last).
type layerShape struct {
	out        int32
	full, vals bool
}

// NewCodec builds a codec for the network's layer shapes.
func NewCodec(n *core.Network) *Codec {
	shapes := make([]layerShape, n.NumLayers())
	for i := range shapes {
		l := n.Layer(i)
		shapes[i] = layerShape{out: int32(l.Out()), full: !l.Sampled(), vals: i < len(shapes)-1}
	}
	return newCodec(int32(n.Config().InputDim), shapes)
}

func newCodec(inputs int32, shapes []layerShape) *Codec {
	c := &Codec{inputs: inputs, layers: shapes, minRecord: 1}
	for _, sh := range shapes {
		switch {
		case !sh.full:
			c.minRecord++
		case sh.vals:
			c.minRecord += 8 * int(sh.out)
		default:
			c.minRecord += 4 * int(sh.out)
		}
	}
	return c
}

// AppendDelta appends d's encoding to buf and returns the extended
// buffer. The delta must satisfy the network's shapes (in-range ids, a
// sampled layer's ascending, a full layer's factors its width, one δ per
// id and activations on every layer but the last); violations are
// reported rather than silently emitting an undecodable payload.
func (c *Codec) AppendDelta(buf []byte, d *core.SparseDelta) ([]byte, error) {
	if len(d.Layers) != len(c.layers) {
		return buf, fmt.Errorf("dist: encoding delta with %d layers, codec has %d", len(d.Layers), len(c.layers))
	}
	records, err := d.Records()
	if err != nil {
		return buf, fmt.Errorf("dist: %w", err)
	}
	buf = slices.Grow(buf, c.maxSize(d, records))
	buf = append(buf, codecMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(d.Layers)))
	buf = binary.AppendUvarint(buf, uint64(records))
	in := &d.Input
	if total := in.Len(); len(in.IDs) != total || len(in.Vals) != total || len(in.Delta) != 0 {
		return buf, fmt.Errorf("dist: input: %d ids, %d values and %d δ for records spanning %d", len(in.IDs), len(in.Vals), len(in.Delta), total)
	}
	for r := range records {
		ids := in.IDs[in.Off[r]:in.Off[r+1]]
		buf = binary.AppendUvarint(buf, uint64(len(ids)))
		prev := int32(0)
		for _, id := range ids {
			if id < 0 || id >= c.inputs {
				return buf, fmt.Errorf("dist: feature %d out of range [0,%d)", id, c.inputs)
			}
			buf = binary.AppendVarint(buf, int64(id-prev))
			prev = id
		}
	}
	buf = appendValues(buf, in.Vals)
	for li, sh := range c.layers {
		if buf, err = c.appendLayer(buf, sh, &d.Layers[li], records); err != nil {
			return buf, fmt.Errorf("dist: layer %d: %w", li, err)
		}
	}
	return buf, nil
}

// maxSize bounds the encoded size of d from its lengths alone, for sizing
// the buffer once: every count and id at its longest.
func (c *Codec) maxSize(d *core.SparseDelta, records int) int {
	const id = binary.MaxVarintLen32
	size := len(codecMagic) + 2*binary.MaxVarintLen64 + (1+len(d.Layers))*records*id + (id+4)*len(d.Input.IDs)
	for li := range d.Layers {
		ld := &d.Layers[li]
		size += id*len(ld.IDs) + 4*(len(ld.Delta)+len(ld.Vals))
	}
	return size
}

func (c *Codec) appendLayer(buf []byte, sh layerShape, ld *core.LayerDelta, records int) ([]byte, error) {
	total := ld.Len()
	ids, vals := total, total
	if sh.full {
		ids = 0
	}
	if !sh.vals {
		vals = 0
	}
	if len(ld.IDs) != ids || len(ld.Delta) != total || len(ld.Vals) != vals {
		return buf, fmt.Errorf("%d ids, %d δ and %d activations for records spanning %d", len(ld.IDs), len(ld.Delta), len(ld.Vals), total)
	}
	for r := range records {
		lo, hi := ld.Off[r], ld.Off[r+1]
		if sh.full {
			if hi-lo != sh.out {
				return buf, fmt.Errorf("record %d: %d δ on a full layer of %d", r, hi-lo, sh.out)
			}
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(hi-lo))
		prev := int32(-1)
		for _, id := range ld.IDs[lo:hi] {
			if id <= prev || id >= sh.out {
				return buf, fmt.Errorf("record %d: id %d out of order or range [0,%d)", r, id, sh.out)
			}
			buf = binary.AppendUvarint(buf, uint64(id-prev-1))
			prev = id
		}
	}
	buf = appendValues(buf, ld.Delta)
	return appendValues(buf, ld.Vals), nil
}

// appendValues appends vals as exact little-endian float32s.
func appendValues(buf []byte, vals []float32) []byte {
	n := len(buf)
	buf = slices.Grow(buf, 4*len(vals))[:n+4*len(vals)]
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[n+4*i:], math.Float32bits(v))
	}
	return buf
}

// DecodeDelta decodes buf into dst (reused when non-nil) with full
// validation: magic (so a frame of another codec version is refused),
// layer count, a record count the payload can back, in-range ids, a
// sampled layer's strictly ascending, a payload that backs every declared
// id and value, and finite values — the error names the layer. The
// returned delta satisfies every ApplyDelta and MergeDeltas precondition.
func (c *Codec) DecodeDelta(dst *core.SparseDelta, buf []byte) (*core.SparseDelta, error) {
	if dst == nil {
		dst = &core.SparseDelta{}
	}
	// The frame limit keeps every offset within an int32.
	if len(buf) > maxFramePayload {
		return dst, fmt.Errorf("dist: delta of %d bytes exceeds the %d frame limit", len(buf), maxFramePayload)
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
	if layers != uint64(len(c.layers)) {
		return dst, fmt.Errorf("dist: delta has %d layers, codec has %d", layers, len(c.layers))
	}
	records, err := r.uvarint()
	if err != nil {
		return dst, err
	}
	// Guard every allocation sized by the record count: a few hostile
	// header bytes must not demand more than the payload could back.
	if records > uint64(len(r.buf)/c.minRecord) {
		return dst, fmt.Errorf("dist: %d records exceed the %d-byte payload", records, len(r.buf))
	}
	if cap(dst.Layers) < len(c.layers) {
		dst.Layers = make([]core.LayerDelta, len(c.layers))
	}
	dst.Layers = dst.Layers[:len(c.layers)]
	if err := c.decodeInput(&r, &dst.Input, int(records)); err != nil {
		return dst, fmt.Errorf("dist: input: %w", err)
	}
	for li, sh := range c.layers {
		if err := decodeLayer(&r, sh, &dst.Layers[li], int(records)); err != nil {
			return dst, fmt.Errorf("dist: layer %d: %w", li, err)
		}
	}
	if len(r.buf) != 0 {
		return dst, fmt.Errorf("dist: %d trailing bytes after delta", len(r.buf))
	}
	return dst, nil
}

// decodeInput decodes the records' features.
func (c *Codec) decodeInput(r *reader, ld *core.LayerDelta, records int) error {
	ld.Off = offsets(ld.Off, records)
	ld.IDs, ld.Delta = ld.IDs[:0], ld.Delta[:0]
	for k := range records {
		count, err := r.uvarint()
		if err != nil {
			return err
		}
		// Every id takes at least a byte: a count the payload cannot back
		// is refused before the ids grow.
		if count > uint64(len(r.buf)) {
			return fmt.Errorf("record %d: %d features exceed the %d-byte payload", k, count, len(r.buf))
		}
		prev := int64(0)
		for range count {
			v, err := r.varint()
			if err != nil {
				return err
			}
			// Check the diff before the addition, which a huge one would
			// overflow.
			if v < -int64(c.inputs) || v >= int64(c.inputs) || prev+v < 0 || prev+v >= int64(c.inputs) {
				return fmt.Errorf("record %d: feature diff %d after %d out of range [0,%d)", k, v, prev, c.inputs)
			}
			prev += v
			ld.IDs = append(ld.IDs, int32(prev))
		}
		ld.Off[k+1] = int32(len(ld.IDs))
	}
	var err error
	ld.Vals, err = readValues(r, ld.Vals, len(ld.IDs))
	return err
}

// decodeLayer decodes one layer's factors.
func decodeLayer(r *reader, sh layerShape, ld *core.LayerDelta, records int) error {
	ld.Off = offsets(ld.Off, records)
	ld.IDs = ld.IDs[:0]
	for k := range records {
		if sh.full {
			ld.Off[k+1] = int32(k+1) * sh.out
			continue
		}
		count, err := r.uvarint()
		if err != nil {
			return err
		}
		if count > uint64(sh.out) || count > uint64(len(r.buf)) {
			return fmt.Errorf("record %d: %d ids exceed the layer's %d or the %d-byte payload", k, count, sh.out, len(r.buf))
		}
		prev := int64(-1)
		for range count {
			diff, err := r.uvarint()
			if err != nil {
				return err
			}
			// Reject the diff before the addition: a diff >= out cannot
			// yield an in-range id, and an unchecked 64-bit diff would
			// overflow the sum negative and slip past the range check.
			if diff >= uint64(sh.out) || prev+1+int64(diff) >= int64(sh.out) {
				return fmt.Errorf("record %d: id diff %d after id %d out of range [0,%d)", k, diff, prev, sh.out)
			}
			prev += 1 + int64(diff)
			ld.IDs = append(ld.IDs, int32(prev))
		}
		ld.Off[k+1] = int32(len(ld.IDs))
	}
	total := ld.Len()
	var err error
	if ld.Delta, err = readValues(r, ld.Delta, total); err != nil {
		return fmt.Errorf("δ: %w", err)
	}
	if !sh.vals {
		total = 0
	}
	if ld.Vals, err = readValues(r, ld.Vals, total); err != nil {
		return fmt.Errorf("activations: %w", err)
	}
	return nil
}

// offsets returns off (reused) sized for records records, with the first
// offset 0, or empty without records.
func offsets(off []int32, records int) []int32 {
	if records == 0 {
		return off[:0]
	}
	off = grow(off, records+1)
	off[0] = 0
	return off
}

// readValues decodes n float32s into dst (reused), refusing a payload too
// short to hold them before the allocation, and a NaN or ±Inf.
func readValues(r *reader, dst []float32, n int) ([]float32, error) {
	if n > len(r.buf)/4 {
		return dst, fmt.Errorf("%d values exceed the %d-byte payload", n, len(r.buf))
	}
	dst = grow(dst, n)
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.buf[4*i:]))
	}
	r.buf = r.buf[4*n:]
	if !vecmath.AllFinite(dst) {
		return dst, fmt.Errorf("non-finite value")
	}
	return dst, nil
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

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		return 0, fmt.Errorf("dist: truncated or overlong varint")
	}
	r.buf = r.buf[n:]
	return v, nil
}
