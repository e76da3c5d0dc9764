package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"unsafe"

	"repro/internal/hashtable"
	"repro/internal/lsh"
)

// Model serialization: a small custom binary format (the module builds
// offline, stdlib only). A model file is self-describing — it embeds the
// network's full Config as JSON so a serving process can reconstruct the
// network (hash families, K/L, sampling strategy) from the file alone —
// and lays each layer out as the layer stores it, page-aligned, so a load
// maps the file and the layers view it:
//
//	magic "SLIDEv4\n"
//	uint32 len(configJSON), configJSON
//	per layer: uint32 in, out, activation
//	           float32 weights in storage order
//	           float32 biases
//	           sampled: the generation-1 table set, uint32 offsets then
//	                    uint32 ids (hashtable.Table.EncodeOffsets/EncodeIDs)
//
// all little-endian. Every float32 and uint32 section — weights, biases,
// table offsets, table ids — starts at a file offset that is a multiple
// of sectionAlign (a page), and the padding before it is zero; a shape
// header follows the section before it directly. "Storage order" is the
// layer's rows in turn (see Layer): neuron rows, or on the input-major
// first layer one input's weights to every neuron. Every section's place
// and size follows from the validated config (layout), so a file too
// short for it is refused before anything is sized.
//
// A file is a pure function of (config, weights): SaveModel builds the
// tables it writes at generation 1 from the weights it writes, into a
// detached set, whatever the network's published tables are. Loading
// draws nothing, hashes nothing and copies no weight: LoadModel maps the
// file (MAP_PRIVATE, read-write, on Linux and Darwin) or reads it into one
// page-aligned heap buffer, sizes the network from the config without its
// random initialization, makes each layer's weights and biases views of
// their sections and decodes the file's tables onto the heap, checked for
// bounds but, like the weights, trusted to be what the writer built;
// nothing checksums the file. Training a loaded network writes its
// weights through the views, and a private mapping gives it copies of
// the pages it writes, so the file never changes. Optimizer moments are
// not persisted and restart, matching the reference implementation's
// checkpointing. The v1, v2 and v3 formats are retired.

const (
	modelMagic = "SLIDEv4\n"
	// sectionAlign is what every section's file offset is a multiple of: a
	// page, so the sections of a mapped file are page-aligned views.
	sectionAlign = 4096
)

// zeroPad is the padding SaveModel writes before a section.
var zeroPad [sectionAlign]byte

// littleEndian reports whether the host stores a float32 as the file
// does, so that a view of a weights section reads the weights.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// SaveModel writes the network as a model file: the full Config as JSON,
// the weights and the tables built from them. A file written by
// SaveModel can be turned back into a working network with LoadModel
// alone — the handoff format between training (slide-train -save) and
// serving (slide-serve -model). It leaves the network as it was: its
// published tables, any held rebuild and the rebuild bookkeeping.
func (n *Network) SaveModel(w io.Writer) error {
	cfgJSON, err := json.Marshal(n.cfg)
	if err != nil {
		return fmt.Errorf("core: encoding model config: %w", err)
	}
	// Write errors stick in bw, and Flush reports the first.
	bw := bufio.NewWriterSize(w, 1<<20)
	bw.Write(binary.LittleEndian.AppendUint32([]byte(modelMagic), uint32(len(cfgJSON))))
	bw.Write(cfgJSON)
	sections, _ := layout(n.cfg, int64(12+len(cfgJSON)))
	for li, s := range sections {
		n.layers[li].encode(bw, s)
	}
	runtime.KeepAlive(n)
	return bw.Flush()
}

// LoadModel reads a model file: it sizes the network from the embedded
// config, makes the layers' weights and biases views of the file and
// decodes the tables. Given a regular *os.File read from its start on
// Linux or Darwin, it maps the file instead of reading it, and the
// mapping lives until no network loaded from it is reachable. Such a file
// must therefore never be truncated or rewritten in place while a network
// loaded from it is reachable: its pages may still be read, and a page
// cut off by truncation faults the process (SIGBUS). Replace a model
// file by writing a new one and renaming it over the path. Any other
// reader is read once into a heap buffer the weights view. When r can
// tell how much of the file is left, a file too short for the sections
// its validated config declares is refused before any layer is sized. A
// file of a retired format, or whose padding is not zero or whose tables
// are malformed, is an error and no network.
func LoadModel(r io.Reader) (*Network, error) {
	if f, ok := r.(*os.File); ok && littleEndian {
		if m := mapFile(f); m != nil {
			return decodeModel(m.data, m)
		}
	}
	file, err := readModel(r)
	if err != nil {
		return nil, err
	}
	return decodeModel(file, nil)
}

// readModel reads a model file from r into one page-aligned heap buffer,
// the header first, which sizes the rest. When r can tell how much is
// left, a file too short for what its header declares is refused before
// the buffer is allocated; from a stream, a short file returns what it
// holds, and decodeModel names the section it ends in.
func readModel(r io.Reader) ([]byte, error) {
	head := make([]byte, 12)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("core: reading model header: %w", noEOF(err))
	}
	at, err := headerLen(head)
	if err != nil {
		return nil, err
	}
	head = append(head, make([]byte, at-12)...)
	if _, err := io.ReadFull(r, head[12:]); err != nil {
		return nil, fmt.Errorf("core: reading model config: %w", noEOF(err))
	}
	cfg, _, err := decodeHeader(head)
	if err != nil {
		return nil, err
	}
	_, size := layout(cfg, at)
	if left, ok := remaining(r); ok && left < size-at {
		return nil, declaresError(size-at, left)
	}
	file := alignedBytes(size)
	copy(file, head)
	got, err := io.ReadFull(r, file[at:])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, fmt.Errorf("core: reading model: %w", err)
	}
	return file[:at+int64(got)], nil
}

// headerLen checks the magic of a file's first 12 bytes and returns the
// length of its header: the magic, the config length and the config.
func headerLen(b []byte) (int64, error) {
	if len(b) < 12 {
		return 0, fmt.Errorf("core: reading model header: %w", io.ErrUnexpectedEOF)
	}
	if magic := string(b[:8]); magic != modelMagic {
		if strings.HasPrefix(magic, "SLIDEv") && strings.HasSuffix(magic, "\n") {
			return 0, fmt.Errorf("core: model file is format %s and this build reads only v4; re-save the model with this build", strings.TrimSpace(magic[5:]))
		}
		return 0, fmt.Errorf("core: bad model magic %q", b[:8])
	}
	cfgLen := binary.LittleEndian.Uint32(b[8:])
	if cfgLen > 1<<20 {
		return 0, fmt.Errorf("core: unreasonable model config size %d", cfgLen)
	}
	return 12 + int64(cfgLen), nil
}

// decodeHeader decodes and validates the config at the head of a file,
// returning it and where the header ends.
func decodeHeader(file []byte) (Config, int64, error) {
	at, err := headerLen(file)
	if err != nil {
		return Config{}, 0, err
	}
	if int64(len(file)) < at {
		return Config{}, 0, fmt.Errorf("core: reading model config: %w", io.ErrUnexpectedEOF)
	}
	// Keys of retired Config fields are ignored by the decoder.
	var cfg Config
	if err := json.Unmarshal(file[12:at], &cfg); err != nil {
		return Config{}, 0, fmt.Errorf("core: decoding model config: %w", err)
	}
	if err := cfg.withDefaults().validate(); err != nil {
		return Config{}, 0, fmt.Errorf("core: reconstructing network from model config: %w", err)
	}
	return cfg, at, nil
}

// decodeModel is the one parser of a model file: file is all of it, or
// from a stream as much of it as there was. m owns file when it is a
// mapping, and each layer points to it; with m nil, file is a heap buffer
// the weights view. A mapped file too short for its config is refused
// before any layer is sized; a short stream is refused naming the
// section it ends in, as io.ErrUnexpectedEOF.
func decodeModel(file []byte, m *mapping) (*Network, error) {
	cfg, at, err := decodeHeader(file)
	if err != nil {
		return nil, err
	}
	sections, size := layout(cfg, at)
	if m != nil && int64(len(file)) < size {
		return nil, declaresError(size-at, int64(len(file))-at)
	}
	views := make([]layerViews, len(sections))
	in := cfg.InputDim
	for li, s := range sections {
		if views[li], err = s.view(file, in, cfg.Layers[li]); err != nil {
			return nil, fmt.Errorf("core: reading layer %d: %w", li, err)
		}
		in = cfg.Layers[li].Size
	}
	n, err := newNetwork(cfg, views)
	if err != nil {
		return nil, fmt.Errorf("core: reconstructing network from model config: %w", err)
	}
	for li, l := range n.layers {
		l.file = m
		if l.Sampled() {
			s := sections[li]
			tables := l.tables.Load().Shadow(1)
			if err := tables.Decode(file[s.offs.at:s.offs.end], file[s.ids.at:s.ids.end], l.out); err != nil {
				return nil, fmt.Errorf("core: reading layer %d: tables: %w", li, err)
			}
			l.tables.Store(tables)
		}
	}
	n.rebuildGen = 1
	return n, nil
}

// declaresError refuses a file holding fewer bytes after its header than
// its config declares.
func declaresError(declared, holds int64) error {
	return fmt.Errorf("core: model config declares %d bytes of weights and tables, the file holds %d", declared, holds)
}

// layerSections is where a model file puts one layer's sections, as byte
// ranges of the file: the 12-byte shape header right after the section
// before it, then each array at the next multiple of sectionAlign — the
// weights, the biases and on a sampled layer its table set's offsets and
// ids (empty spans on a dense layer).
type layerSections struct {
	shape           int64
	w, b, offs, ids span
}

// span is the byte range [at, end) of a file.
type span struct{ at, end int64 }

// end is past the layer's last section.
func (s layerSections) end() int64 { return max(s.b.end, s.ids.end) }

// layerViews are a loaded layer's weights, in storage order, and its
// biases: views of its model file.
type layerViews struct {
	w, b []float32
}

// layout places the sections a validated cfg declares in a file whose
// header ends at at — per layer a shape header, in·out weights and out
// biases, and on a sampled layer its table set's offsets and ids — and
// returns them with the file's size.
func layout(cfg Config, at int64) ([]layerSections, int64) {
	sections := make([]layerSections, len(cfg.Layers))
	next := func(from, n int64) span {
		at := (from + sectionAlign - 1) &^ (sectionAlign - 1)
		return span{at, at + n}
	}
	in := int64(cfg.InputDim)
	for li, lc := range cfg.Layers {
		out := int64(lc.Size)
		s := &sections[li]
		s.shape = at
		s.w = next(at+12, 4*in*out)
		s.b = next(s.w.end, 4*out)
		if lc.Sampled {
			bits := lc.Hash.CodeBits(lsh.Params{Dim: int(in), K: lc.K, L: lc.L, BinSize: lc.BinSize})
			offs, ids := hashtable.Config{K: lc.K, L: lc.L, CodeBits: bits, RangePow: lc.RangePow}.EncodedSizes(lc.Size)
			s.offs = next(s.b.end, offs)
			s.ids = next(s.offs.end, ids)
		}
		at, in = s.end(), out
	}
	return sections, at
}

// view checks the layer's part of file in file order — its shape header
// against the config, then each section's padding and the section — and
// returns its weights and biases as views of file. A section the file
// ends in, or before, is io.ErrUnexpectedEOF naming it; padding that is
// not zero is an error. The tables are only checked to be there: Decode
// reads them once the layer exists.
func (s layerSections) view(file []byte, in int, lc LayerConfig) (layerViews, error) {
	if int64(len(file)) < s.shape+12 {
		return layerViews{}, fmt.Errorf("shape: %w", io.ErrUnexpectedEOF)
	}
	hdr := file[s.shape:]
	gotIn, gotOut, act := binary.LittleEndian.Uint32(hdr), binary.LittleEndian.Uint32(hdr[4:]), Activation(binary.LittleEndian.Uint32(hdr[8:]))
	if int(gotIn) != in || int(gotOut) != lc.Size || act != lc.Activation {
		return layerViews{}, fmt.Errorf("shape %dx%d activation %d, config says %dx%d activation %d", gotIn, gotOut, act, in, lc.Size, lc.Activation)
	}
	from := s.shape + 12
	for _, sec := range []struct {
		name string
		span
	}{{"weights", s.w}, {"biases", s.b}, {"tables", s.offs}, {"tables", s.ids}} {
		if sec.at == 0 {
			break // a dense layer's
		}
		if int64(len(file)) < sec.end {
			return layerViews{}, fmt.Errorf("%s: %w", sec.name, io.ErrUnexpectedEOF)
		}
		for _, c := range file[from:sec.at] {
			if c != 0 {
				return layerViews{}, fmt.Errorf("%s: the padding before them is not zero", sec.name)
			}
		}
		from = sec.end
	}
	return layerViews{w: floatsAt(file, s.w), b: floatsAt(file, s.b)}, nil
}

// floatsAt views the float32s of file's section sp. On a big-endian host
// file is a heap buffer of LoadModel's own, and the values are first
// turned into the host's byte order in place.
func floatsAt(file []byte, sp span) []float32 {
	b := file[sp.at:sp.end]
	if len(b) == 0 {
		return nil
	}
	if !littleEndian {
		for i := 0; i < len(b); i += 4 {
			binary.NativeEndian.PutUint32(b[i:], binary.LittleEndian.Uint32(b[i:]))
		}
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// alignedBytes returns a zeroed heap buffer of n bytes that starts on a
// sectionAlign boundary, so its sections are aligned as a mapping's are.
func alignedBytes(n int64) []byte {
	b := make([]byte, n+sectionAlign)
	skip := -int64(uintptr(unsafe.Pointer(unsafe.SliceData(b)))) & (sectionAlign - 1)
	return b[skip : skip+n : skip+n]
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

// encode writes the layer's part of a model file at its sections s,
// appending straight into bw's buffer and zero-padding each section to
// its offset; a sampled layer's tables are built for the file at
// generation 1 (Layer.build).
func (l *Layer) encode(bw *bufio.Writer, s layerSections) {
	binary.Write(bw, binary.LittleEndian, [3]uint32{uint32(l.in), uint32(l.out), uint32(l.cfg.Activation)})
	bw.Write(zeroPad[:s.w.at-s.shape-12])
	for _, row := range l.w {
		writeFloats(bw, row)
	}
	bw.Write(zeroPad[:s.b.at-s.w.end])
	writeFloats(bw, l.b[:l.out])
	if l.Sampled() {
		tables := l.build(1, defaultThreads())
		bw.Write(zeroPad[:s.offs.at-s.b.end])
		tables.EncodeOffsets(bw)
		bw.Write(zeroPad[:s.ids.at-s.offs.end])
		tables.EncodeIDs(bw)
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

// writeFloats writes src little-endian, appending straight into bw's
// buffer once it has room for all of src.
func writeFloats(bw *bufio.Writer, src []float32) {
	if bw.Available() < 4*len(src) {
		bw.Flush()
	}
	bw.Write(appendFloats(bw.AvailableBuffer(), src))
}

// appendFloats appends src to dst little-endian, four bytes a value.
func appendFloats(dst []byte, src []float32) []byte {
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}
