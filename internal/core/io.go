package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Model serialization: a small custom binary format (the module builds
// offline, stdlib only). A model file is self-describing — it embeds the
// network's full Config as JSON so a serving process can reconstruct the
// network (hash families, K/L, sampling strategy) from the file alone:
//
//	magic "SLIDEv2\n"
//	uint32 len(configJSON), configJSON
//	per layer: uint32 in, out, activation
//	           float32 weights neuron-major, float32 biases
//
// all little-endian. "Neuron-major" is neuron 0's in weights, then neuron
// 1's, and so on, whichever way the layer stores them (see Layer).
//
// Loading draws nothing: LoadModel sizes the network from the config
// without its random initialization and decodes the weights straight into
// the layers' storage. Optimizer moments and hash tables are not
// persisted: tables are rebuilt from the loaded weights (a pure function
// of them), and moments restart, matching the reference implementation's
// checkpointing. The weights-only v1 format is retired.

const modelMagic = "SLIDEv2\n"

// codecBlock is how many neurons the input-major layer's codec transposes
// at once: each input's share of a block is one cache line of its row.
const codecBlock = 16

// SaveModel writes the network as a model file: the full Config as JSON
// followed by the weights. A file written by SaveModel can be turned back
// into a working network with LoadModel alone — the handoff format
// between training (slide-train -save) and serving (slide-serve -model).
func (n *Network) SaveModel(w io.Writer) error {
	cfgJSON, err := json.Marshal(n.cfg)
	if err != nil {
		return fmt.Errorf("core: encoding model config: %w", err)
	}
	// Write errors stick in bw, and Flush reports the first.
	bw := bufio.NewWriterSize(w, 1<<20)
	bw.Write(binary.LittleEndian.AppendUint32([]byte(modelMagic), uint32(len(cfgJSON))))
	bw.Write(cfgJSON)
	var buf []byte
	for _, l := range n.layers {
		buf = l.encode(bw, buf)
	}
	return bw.Flush()
}

// LoadModel reads a model file: it sizes the network from the embedded
// config, decodes the weights into it and builds the hash tables from
// them. When r can tell how much of the file is left, a file too short
// for the weights its validated config declares is refused before any
// layer is sized.
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
	if string(hdr[:8]) != modelMagic {
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
		if left += int64(br.Buffered()); left < weightBytes(cfg) {
			return nil, fmt.Errorf("core: model config declares %d bytes of weights, the file holds %d", weightBytes(cfg), left)
		}
	}
	n, err := newNetwork(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("core: reconstructing network from model config: %w", err)
	}
	var buf []byte
	for li, l := range n.layers {
		if buf, err = l.decode(br, buf); err != nil {
			return nil, fmt.Errorf("core: reading layer %d: %w", li, err)
		}
	}
	n.RebuildTables(0)
	return n, nil
}

// weightBytes is the size of the weight section cfg declares: per layer a
// 12-byte shape header, in*out weights and out biases.
func weightBytes(cfg Config) (total int64) {
	in := int64(cfg.InputDim)
	for _, lc := range cfg.Layers {
		total += 12 + 4*(in+1)*int64(lc.Size)
		in = int64(lc.Size)
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
// into bw's buffer; the input-major layer is gathered codecBlock neurons
// at a time into buf, scratch reused across layers and returned.
func (l *Layer) encode(bw *bufio.Writer, buf []byte) []byte {
	binary.Write(bw, binary.LittleEndian, [3]uint32{uint32(l.in), uint32(l.out), uint32(l.cfg.Activation)})
	if l.inputMajor {
		for j0 := 0; j0 < l.out; j0 += codecBlock {
			nb := min(codecBlock, l.out-j0)
			buf = slices.Grow(buf[:0], 4*nb*l.in)[:4*nb*l.in]
			for i, row := range l.w {
				for b, v := range row[j0 : j0+nb] {
					binary.LittleEndian.PutUint32(buf[4*(b*l.in+i):], math.Float32bits(v))
				}
			}
			bw.Write(buf)
		}
	} else {
		for _, row := range l.w {
			bw.Write(appendFloats(bw.AvailableBuffer(), row))
		}
	}
	bw.Write(appendFloats(bw.AvailableBuffer(), l.b[:l.out]))
	return buf
}

// decode reads what encode wrote straight into the layer's storage after
// checking its shape, staging through buf as encode does; the input-major
// layer scatters each block one cache line of each input row at a time.
// A file that ends early is io.ErrUnexpectedEOF.
func (l *Layer) decode(br *bufio.Reader, buf []byte) ([]byte, error) {
	read := func(size int) error {
		buf = slices.Grow(buf[:0], size)[:size]
		_, err := io.ReadFull(br, buf)
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	if err := read(12); err != nil {
		return buf, err
	}
	in, out, act := binary.LittleEndian.Uint32(buf), binary.LittleEndian.Uint32(buf[4:]), Activation(binary.LittleEndian.Uint32(buf[8:]))
	if int(in) != l.in || int(out) != l.out || act != l.cfg.Activation {
		return buf, fmt.Errorf("shape %dx%d activation %d, config says %dx%d activation %d", in, out, act, l.in, l.out, l.cfg.Activation)
	}
	if l.inputMajor {
		for j0 := 0; j0 < l.out; j0 += codecBlock {
			nb := min(codecBlock, l.out-j0)
			if err := read(4 * nb * l.in); err != nil {
				return buf, err
			}
			for i, row := range l.w {
				dst := row[j0 : j0+nb]
				for b := range dst {
					dst[b] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*(b*l.in+i):]))
				}
			}
		}
	} else {
		for _, row := range l.w {
			if err := read(4 * l.in); err != nil {
				return buf, err
			}
			getFloats(row, buf)
		}
	}
	err := read(4 * l.out)
	if err == nil {
		getFloats(l.b[:l.out], buf)
	}
	return buf, err
}

// appendFloats appends src to dst little-endian, four bytes a value.
func appendFloats(dst []byte, src []float32) []byte {
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// getFloats decodes len(dst) little-endian values from src into dst.
func getFloats(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}
