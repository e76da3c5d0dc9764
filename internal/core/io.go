package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/hashtable"
	"repro/internal/lsh"
)

// Model serialization: a small custom binary format (the module builds
// offline, stdlib only). A model file is self-describing — it embeds the
// network's full Config as JSON so a serving process can reconstruct the
// network (hash families, K/L, sampling strategy) from the file alone —
// and lays each layer out as the layer stores it, so a load is reads:
//
//	magic "SLIDEv3\n"
//	uint32 len(configJSON), configJSON
//	per layer: uint32 in, out, activation
//	           float32 weights in storage order, float32 biases
//	           sampled: the generation-1 table set (hashtable.Table.Encode)
//
// all little-endian. "Storage order" is the layer's rows in turn (see
// Layer): neuron rows, or on the input-major first layer one input's
// weights to every neuron. Every section's size follows from the
// validated config, so a file too short for it is refused before
// anything is sized.
//
// A file is a pure function of (config, weights): SaveModel builds the
// tables it writes at generation 1 from the weights it writes, into a
// detached set, whatever the network's published tables are. Loading
// draws nothing and hashes nothing: LoadModel sizes the network from the
// config without its random initialization, decodes the weights straight
// into the layers' storage and publishes the file's tables, checked for
// bounds but, like the weights, trusted to be what the writer built.
// Optimizer moments are not persisted and restart, matching the reference
// implementation's checkpointing. The v1 and v2 formats are retired.

const modelMagic = "SLIDEv3\n"

// SaveModel writes the network as a model file: the full Config as JSON,
// the weights and the tables built from them. A file written by
// SaveModel can be turned back into a working network with LoadModel
// alone — the handoff format between training (slide-train -save) and
// serving (slide-serve -model). It leaves the network as it was: its
// published tables, any pending rebuild and the rebuild bookkeeping.
func (n *Network) SaveModel(w io.Writer) error {
	cfgJSON, err := json.Marshal(n.cfg)
	if err != nil {
		return fmt.Errorf("core: encoding model config: %w", err)
	}
	// Write errors stick in bw, and Flush reports the first.
	bw := bufio.NewWriterSize(w, 1<<20)
	bw.Write(binary.LittleEndian.AppendUint32([]byte(modelMagic), uint32(len(cfgJSON))))
	bw.Write(cfgJSON)
	for _, l := range n.layers {
		l.encode(bw)
	}
	return bw.Flush()
}

// LoadModel reads a model file: it sizes the network from the embedded
// config and decodes the weights and tables into it. When r can tell how
// much of the file is left, a file too short for the sections its
// validated config declares is refused before any layer is sized. A file
// of a retired format, or whose tables are malformed, is an error and no
// network.
func LoadModel(r io.Reader) (*Network, error) {
	// A file that tells its size reads through a buffer no larger than
	// itself, so refusing a small file allocates next to nothing.
	bufSize := 1 << 20
	if left, ok := remaining(r); ok && left < int64(bufSize) {
		bufSize = int(left) // bufio raises it to its minimum
	}
	br := bufio.NewReaderSize(r, bufSize)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: reading model header: %w", err)
	}
	if magic := string(hdr[:8]); magic != modelMagic {
		if strings.HasPrefix(magic, "SLIDEv") && strings.HasSuffix(magic, "\n") {
			return nil, fmt.Errorf("core: model file is format %s and this build reads only v3; re-save the model with this build", strings.TrimSpace(magic[5:]))
		}
		return nil, fmt.Errorf("core: bad model magic %q", hdr[:8])
	}
	cfgLen := binary.LittleEndian.Uint32(hdr[8:])
	if cfgLen > 1<<20 {
		return nil, fmt.Errorf("core: unreasonable model config size %d", cfgLen)
	}
	cfgJSON := make([]byte, cfgLen)
	if _, err := io.ReadFull(br, cfgJSON); err != nil {
		return nil, fmt.Errorf("core: reading model config: %w", err)
	}
	// Keys of retired Config fields are ignored by the decoder.
	var cfg Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return nil, fmt.Errorf("core: decoding model config: %w", err)
	}
	if err := cfg.withDefaults().validate(); err != nil {
		return nil, fmt.Errorf("core: reconstructing network from model config: %w", err)
	}
	if left, ok := remaining(r); ok {
		if left += int64(br.Buffered()); left < sectionBytes(cfg) {
			return nil, fmt.Errorf("core: model config declares %d bytes of weights and tables, the file holds %d", sectionBytes(cfg), left)
		}
	}
	n, err := newNetwork(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("core: reconstructing network from model config: %w", err)
	}
	for li, l := range n.layers {
		if err := l.decode(br); err != nil {
			return nil, fmt.Errorf("core: reading layer %d: %w", li, err)
		}
	}
	n.rebuildGen = 1
	return n, nil
}

// sectionBytes is the size of the sections after the config that cfg
// declares: per layer a 12-byte shape header, in*out weights and out
// biases, and on a sampled layer its table set.
func sectionBytes(cfg Config) (total int64) {
	in := cfg.InputDim
	for _, lc := range cfg.Layers {
		total += 12 + 4*(int64(in)+1)*int64(lc.Size)
		if lc.Sampled {
			bits := lc.Hash.CodeBits(lsh.Params{Dim: in, K: lc.K, L: lc.L, BinSize: lc.BinSize})
			total += hashtable.Config{K: lc.K, L: lc.L, CodeBits: bits, RangePow: lc.RangePow}.EncodedSize(lc.Size)
		}
		in = lc.Size
	}
	return total
}

// remaining reports how many bytes r has left to return, when it can
// tell: an in-memory reader's Len, or a regular file's size past its
// offset.
func remaining(r io.Reader) (int64, bool) {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len()), true
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			if off, err := r.Seek(0, io.SeekCurrent); err == nil {
				return fi.Size() - off, true
			}
		}
	}
	return 0, false
}

// encode writes the layer's part of a model file, appending straight
// into bw's buffer; a sampled layer's tables are built for the file at
// generation 1 over scratch of their own (Layer.build).
func (l *Layer) encode(bw *bufio.Writer) {
	binary.Write(bw, binary.LittleEndian, [3]uint32{uint32(l.in), uint32(l.out), uint32(l.cfg.Activation)})
	for _, row := range l.w {
		bw.Write(appendFloats(bw.AvailableBuffer(), row))
	}
	bw.Write(appendFloats(bw.AvailableBuffer(), l.b[:l.out]))
	if l.Sampled() {
		tables, _, _ := l.build(1, nil, defaultThreads(), nil, nil)
		tables.Encode(bw)
	}
}

// decode reads what encode wrote straight into the layer's storage after
// checking its shape, decoding each row out of br's buffer, then
// publishes the file's tables. A file that ends early is
// io.ErrUnexpectedEOF.
func (l *Layer) decode(br *bufio.Reader) error {
	hdr, err := br.Peek(12)
	if err != nil {
		return noEOF(err)
	}
	in, out, act := binary.LittleEndian.Uint32(hdr), binary.LittleEndian.Uint32(hdr[4:]), Activation(binary.LittleEndian.Uint32(hdr[8:]))
	if int(in) != l.in || int(out) != l.out || act != l.cfg.Activation {
		return fmt.Errorf("shape %dx%d activation %d, config says %dx%d activation %d", in, out, act, l.in, l.out, l.cfg.Activation)
	}
	br.Discard(12)
	for _, row := range l.w {
		if err := readFloats(br, row); err != nil {
			return err
		}
	}
	if err := readFloats(br, l.b[:l.out]); err != nil {
		return err
	}
	if l.Sampled() {
		tables := l.tables.Load().Shadow(1)
		if err := tables.Decode(br, l.out); err != nil {
			return fmt.Errorf("tables: %w", err)
		}
		l.tables.Store(tables)
	}
	return nil
}

// readFloats decodes len(dst) little-endian values from br straight out
// of its buffer, at most a buffer's worth at a time.
func readFloats(br *bufio.Reader, dst []float32) error {
	for len(dst) > 0 {
		n := min(len(dst), br.Size()/4)
		src, err := br.Peek(4 * n)
		if err != nil {
			return noEOF(err)
		}
		getFloats(dst[:n], src)
		br.Discard(4 * n)
		dst = dst[n:]
	}
	return nil
}

// getFloats decodes len(dst) little-endian values from src into dst,
// four per two 8-byte loads, which halves the loop's cost per value.
func getFloats(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	for len(dst) >= 4 {
		lo, hi := binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:16])
		d := dst[:4:4]
		d[0], d[1] = math.Float32frombits(uint32(lo)), math.Float32frombits(uint32(lo>>32))
		d[2], d[3] = math.Float32frombits(uint32(hi)), math.Float32frombits(uint32(hi>>32))
		dst, src = dst[4:], src[16:]
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// noEOF reports a read that found the file's end as io.ErrUnexpectedEOF:
// every section of a model file is whole.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// appendFloats appends src to dst little-endian, four bytes a value.
func appendFloats(dst []byte, src []float32) []byte {
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}
