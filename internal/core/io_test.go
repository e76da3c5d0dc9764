package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
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
			for i := range n.layers[li].w[j] {
				if n.layers[li].w[j][i] != m.layers[li].w[j][i] {
					t.Fatalf("layer %d w[%d][%d] differs after load", li, j, i)
				}
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
