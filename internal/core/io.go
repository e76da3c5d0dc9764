package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Model serialization: a small custom binary format (the module builds
// offline, stdlib only). Two versions exist:
//
// v1 (Save/Load) persists weights only and requires the caller to have
// already constructed an identically shaped network:
//
//	magic "SLIDEv1\n"
//	uint32 inputDim, uint32 numLayers
//	per layer: uint32 in, out, activation
//	           float32 weights neuron-major, float32 biases
//
// v2 (SaveModel/LoadModel) is self-describing — it embeds the network's
// full Config as JSON so a serving process can reconstruct the network
// (hash families, K/L, sampling strategy) from the file alone:
//
//	magic "SLIDEv2\n"
//	uint32 len(configJSON), configJSON
//	per layer: uint32 in, out, activation
//	           float32 weights neuron-major, float32 biases
//
// "Neuron-major" is neuron 0's in weights, then neuron 1's, and so on,
// whichever way the layer stores them in memory (see Layer).
//
// Optimizer moments and hash tables are not persisted in either version:
// tables are reconstructed from the loaded weights (they are a pure
// function of them), and moments restart, matching the reference
// implementation's checkpointing.

var (
	modelMagic   = [8]byte{'S', 'L', 'I', 'D', 'E', 'v', '1', '\n'}
	modelMagicV2 = [8]byte{'S', 'L', 'I', 'D', 'E', 'v', '2', '\n'}
)

// Save writes the network's weights to w in the v1 (weights-only) format.
func (n *Network) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(modelMagic[:]); err != nil {
		return err
	}
	hdr := []uint32{uint32(n.cfg.InputDim), uint32(len(n.layers))}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := n.writeWeights(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveModel writes the network in the self-describing v2 format: the full
// Config as JSON followed by the weights. A file written by SaveModel can
// be turned back into a working network with LoadModel alone — the
// handoff format between training (slide-train -save) and serving
// (slide-serve -model).
func (n *Network) SaveModel(w io.Writer) error {
	cfgJSON, err := json.Marshal(n.cfg)
	if err != nil {
		return fmt.Errorf("core: encoding model config: %w", err)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(modelMagicV2[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(cfgJSON))); err != nil {
		return err
	}
	if _, err := bw.Write(cfgJSON); err != nil {
		return err
	}
	if err := n.writeWeights(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadModel reads a v2 model: it reconstructs the network from the
// embedded config, restores the weights, and rebuilds the hash tables.
func LoadModel(r io.Reader) (*Network, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading model magic: %w", err)
	}
	if magic != modelMagicV2 {
		if magic == modelMagic {
			return nil, fmt.Errorf("core: v1 model file has no embedded config; load it with (*Network).Load into a matching network")
		}
		return nil, fmt.Errorf("core: bad model magic %q", magic[:])
	}
	var cfgLen uint32
	if err := binary.Read(br, binary.LittleEndian, &cfgLen); err != nil {
		return nil, err
	}
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
	// Defer the table build until the real weights are in place — the
	// tables are a pure function of the weights, so hashing the random
	// initialization would be thrown away.
	n, err := newNetwork(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("core: reconstructing network from model config: %w", err)
	}
	if err := n.readWeights(br, (*Layer).setWeights); err != nil {
		return nil, err
	}
	n.RebuildTables(0)
	return n, nil
}

// writeWeights streams every layer's shape metadata, weights and biases,
// the weights neuron by neuron whatever the layer's orientation (Weights).
func (n *Network) writeWeights(bw *bufio.Writer) error {
	for _, l := range n.layers {
		meta := []uint32{uint32(l.in), uint32(l.out), uint32(l.cfg.Activation)}
		if err := binary.Write(bw, binary.LittleEndian, meta); err != nil {
			return err
		}
		for j := 0; j < l.out; j++ {
			if err := binary.Write(bw, binary.LittleEndian, l.Weights(j)); err != nil {
				return err
			}
		}
		if err := binary.Write(bw, binary.LittleEndian, l.b[:l.out]); err != nil {
			return err
		}
	}
	return nil
}

// readWeights decodes what writeWeights wrote, validating every layer's
// shape against the receiver, and hands each layer's block — out
// neuron-major rows of in weights, then out biases — to store. Rows are
// decoded one at a time: a single binary.Read of the block would stage
// four bytes per weight on top of it.
func (n *Network) readWeights(br *bufio.Reader, store func(l *Layer, block []float32)) error {
	for li, l := range n.layers {
		var meta [3]uint32
		if err := binary.Read(br, binary.LittleEndian, &meta); err != nil {
			return err
		}
		if int(meta[0]) != l.in || int(meta[1]) != l.out || Activation(meta[2]) != l.cfg.Activation {
			return fmt.Errorf("core: layer %d shape mismatch", li)
		}
		block := make([]float32, l.out*l.in+l.out)
		for j := 0; j < l.out; j++ {
			if err := binary.Read(br, binary.LittleEndian, block[j*l.in:(j+1)*l.in]); err != nil {
				return err
			}
		}
		if err := binary.Read(br, binary.LittleEndian, block[l.out*l.in:]); err != nil {
			return err
		}
		store(l, block)
	}
	return nil
}

// Load restores weights saved by Save into an identically shaped network
// and rebuilds the hash tables from them. The whole file is decoded before
// any of it is stored, so a truncated or corrupt file leaves the receiver
// as it was.
func (n *Network) Load(r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("core: reading model magic: %w", err)
	}
	if magic != modelMagic {
		return fmt.Errorf("core: bad model magic %q", magic[:])
	}
	var hdr [2]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return err
	}
	if int(hdr[0]) != n.cfg.InputDim || int(hdr[1]) != len(n.layers) {
		return fmt.Errorf("core: model shape %dx%d layers does not match network %dx%d",
			hdr[0], hdr[1], n.cfg.InputDim, len(n.layers))
	}
	blocks := make([][]float32, 0, len(n.layers))
	if err := n.readWeights(br, func(_ *Layer, block []float32) { blocks = append(blocks, block) }); err != nil {
		return err
	}
	for li, l := range n.layers {
		l.setWeights(blocks[li])
	}
	// Restore to generation 1 exactly like LoadModel, so every restore
	// path yields identical reservoir streams (replica-to-replica
	// determinism) no matter how many builds the receiver ran before.
	n.rebuildGen = 0
	n.RebuildTables(0)
	return nil
}
