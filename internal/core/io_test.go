package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/lsh"
	"repro/internal/sampling"
)

// v2File assembles a v2 model file from hand-written config JSON and
// all-zero weights for the given layer shapes (in, out, activation).
func v2File(cfgJSON string, layers [][3]uint32) []byte {
	b := append([]byte(nil), modelMagicV2[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cfgJSON)))
	b = append(b, cfgJSON...)
	for _, l := range layers {
		for _, v := range l {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		b = append(b, make([]byte, 4*(l[0]+1)*l[1])...)
	}
	return b
}

// TestLoadModelValidatesConfig: a model file's config JSON is input like
// any other. Files of every retired update mode (0, 1, 2) load, with the
// key ignored; an unknown activation is an error rather than a network
// that applies no non-linearity, and a shape int32 indices cannot address
// is an error before any weight memory is sized for it.
func TestLoadModelValidatesConfig(t *testing.T) {
	file := func(act int, extra string) []byte {
		cfg := fmt.Sprintf(`{"InputDim":8,"Layers":[{"Size":4,"Activation":%d},{"Size":3,"Activation":1}]%s}`, act, extra)
		return v2File(cfg, [][3]uint32{{8, 4, uint32(act)}, {4, 3, uint32(ActSoftmax)}})
	}
	want, err := LoadModel(bytes.NewReader(file(int(ActReLU), "")))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("retired update mode %d", mode), func(t *testing.T) {
			n, err := LoadModel(bytes.NewReader(file(int(ActReLU), fmt.Sprintf(`,"UpdateMode":%d`, mode))))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(n.Config(), want.Config()) {
				t.Fatalf("loaded config %+v, want %+v", n.Config(), want.Config())
			}
		})
	}
	for _, bad := range []struct {
		name string
		data []byte
	}{
		{"activation 9", file(9, "")},
		// Headers only: loading must fail before it reads any weights.
		{"layer size 2^50", v2File(`{"InputDim":4,"Layers":[{"Size":1125899906842624,"Activation":1}]}`, nil)},
		{"layer 70000x70000", v2File(`{"InputDim":70000,"Layers":[{"Size":70000,"Activation":1}]}`, nil)},
		{"input dim 2^31", v2File(`{"InputDim":2147483648,"Layers":[{"Size":1,"Activation":1}]}`, nil)},
	} {
		t.Run(bad.name, func(t *testing.T) {
			if _, err := LoadModel(bytes.NewReader(bad.data)); err == nil {
				t.Error("LoadModel accepted the file")
			}
		})
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	classes := 128
	ds := tinyDataset(t, classes)
	n, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Epochs: 2, Seed: 2, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	before, err := n.Evaluate(ds.Test, 200, 4)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}

	m, err := NewNetwork(tinyConfig(classes))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	after, err := m.Evaluate(ds.Test, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if before.P1 != after.P1 {
		t.Fatalf("P@1 changed across save/load: %v vs %v", before.P1, after.P1)
	}
	// Weights must match exactly.
	for li := range n.layers {
		for j := 0; j < n.layers[li].out; j++ {
			if !slices.Equal(n.layers[li].Weights(j), m.layers[li].Weights(j)) {
				t.Fatalf("layer %d neuron %d weights differ after load", li, j)
			}
		}
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	n, err := NewNetwork(tinyConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Mismatched shape: save a 64-class model, load into 128.
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := NewNetwork(tinyConfig(128))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// TestLoadFailureLeavesReceiver: Load decodes the whole file before it
// stores any of it, so a truncated or corrupt file is an error that leaves
// the receiver's weights, biases and tables exactly as they were.
func TestLoadFailureLeavesReceiver(t *testing.T) {
	const classes = 64
	ds := tinyDataset(t, classes)
	n := mustNet(t, tinyConfig(classes))
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 5, Seed: 3, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	// The last layer's shape header sits just after the first layer's
	// weights and biases.
	l0 := n.layers[0]
	lastMeta := 8 + 8 + 12 + 4*(l0.out*l0.in+l0.out)
	corrupt := append([]byte(nil), file...)
	binary.LittleEndian.PutUint32(corrupt[lastMeta:], 7)
	for name, data := range map[string][]byte{
		"truncated by 100 bytes":   file[:len(file)-100],
		"truncated in layer 0":     file[:lastMeta-4],
		"corrupt last layer shape": corrupt,
	} {
		t.Run(name, func(t *testing.T) {
			m := mustNet(t, tinyConfig(classes))
			before, tables := stateHash(m), m.layers[1].Tables()
			if err := m.Load(bytes.NewReader(data)); err == nil {
				t.Fatal("Load accepted the file")
			}
			if stateHash(m) != before || m.layers[1].Tables() != tables {
				t.Fatal("failed Load changed the receiver")
			}
		})
	}
}

// fuzzMaxWeights bounds the weights a fuzzed model file may declare: the
// harness skips bigger configs so fuzzing cannot exhaust memory. It is a
// limit of this test, not of LoadModel.
const fuzzMaxWeights = 1 << 20

// fuzzAffordable reports whether the network a fuzzed file declares fits
// the harness: at most fuzzMaxWeights weights over a handful of layers,
// and sampled layers whose hash families, tables and table builds stay
// small. A file whose header does not decode to a valid config fits —
// LoadModel rejects it before sizing anything.
func fuzzAffordable(data []byte) bool {
	if len(data) < 12 || [8]byte(data[:8]) != modelMagicV2 {
		return true
	}
	n := int(binary.LittleEndian.Uint32(data[8:]))
	if n > 1<<20 || len(data) < 12+n {
		return true
	}
	var cfg Config
	if json.Unmarshal(data[12:12+n], &cfg) != nil || cfg.withDefaults().validate() != nil {
		return true
	}
	if len(cfg.Layers) > 8 {
		return false
	}
	var weights int64
	in := cfg.InputDim
	for _, lc := range cfg.Layers {
		w := int64(in) * int64(lc.Size)
		weights += w
		if lc.Sampled {
			// RangePow 0 sizes the tables by the family's code width, up to
			// 2^18 buckets each, so only a small explicit one fits.
			bucket := lc.BucketSize
			if bucket == 0 {
				bucket = 128
			}
			if lc.RangePow < 1 || lc.RangePow > 10 || bucket > 256 || lc.K > 16 || lc.L > 16 ||
				int64(lc.L)<<lc.RangePow*int64(bucket) > 1<<20 || int64(lc.K*lc.L)*w > 1<<24 {
				return false
			}
		}
		in = lc.Size
	}
	return weights <= fuzzMaxWeights
}

// FuzzLoadModel feeds LoadModel arbitrary bytes, seeded with SaveModel
// files of every layer orientation plus truncated and hostile ones: it must
// return an error or a network, never panic, and a network it returns must
// re-save to bytes that load back to the same network.
func FuzzLoadModel(f *testing.F) {
	sampled := func(size int, act Activation, kind lsh.Kind) LayerConfig {
		return LayerConfig{
			Size: size, Activation: act, Sampled: true, Hash: kind,
			K: 2, L: 3, RangePow: 3, BucketSize: 8, Strategy: sampling.KindVanilla, Beta: 6,
		}
	}
	for _, cfg := range []Config{
		// Input-major first layer, sampled output.
		{InputDim: 40, Seed: 1, Layers: []LayerConfig{{Size: 16, Activation: ActReLU}, sampled(24, ActSoftmax, lsh.KindSimhash)}},
		// Sampled, neuron-major first layer.
		{InputDim: 30, Seed: 2, Layers: []LayerConfig{sampled(20, ActSoftmax, lsh.KindWTA)}},
		// Dense throughout.
		{InputDim: 12, Seed: 3, Layers: []LayerConfig{{Size: 8, Activation: ActLinear}, {Size: 6, Activation: ActReLU}, {Size: 5, Activation: ActSoftmax}}},
	} {
		n, err := NewNetwork(cfg)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := n.SaveModel(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-100])
	}
	f.Add(v2File(`{"InputDim":1048576,"Layers":[{"Size":1048576,"Activation":1}]}`, nil))
	f.Add(v2File(`{"InputDim":30,"Layers":[{"Size":20,"Activation":1,"Sampled":true,"Hash":1,"K":2,"L":3,"RangePow":3,"Beta":6,"BinSize":-1}]}`, [][3]uint32{{30, 20, 1}}))
	f.Add(append(modelMagicV2[:], 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !fuzzAffordable(data) {
			t.Skip("declares more than the harness builds")
		}
		n, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		if err := n.SaveModel(&a); err != nil {
			t.Fatalf("loaded network does not save: %v", err)
		}
		m, err := LoadModel(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("re-saved model does not load: %v", err)
		}
		if err := m.SaveModel(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) || stateHash(m) != stateHash(n) {
			t.Fatal("save/load round trip is not stable")
		}
	})
}
