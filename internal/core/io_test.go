package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/optim"
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
// any other. The retired update mode 1 loads as ModeHogwild, whose code it
// ran; any other unknown update mode or activation is an error rather
// than a network that silently trains as hogwild or applies no
// non-linearity.
func TestLoadModelValidatesConfig(t *testing.T) {
	file := func(act, mode int) []byte {
		cfg := fmt.Sprintf(`{"InputDim":8,"Layers":[{"Size":4,"Activation":%d},{"Size":3,"Activation":1}],"UpdateMode":%d}`, act, mode)
		return v2File(cfg, [][3]uint32{{8, 4, uint32(act)}, {4, 3, uint32(ActSoftmax)}})
	}
	t.Run("retired update mode 1", func(t *testing.T) {
		n, err := LoadModel(bytes.NewReader(file(int(ActReLU), 1)))
		if err != nil {
			t.Fatal(err)
		}
		if got := n.Config().UpdateMode; got != optim.ModeHogwild {
			t.Fatalf("loaded as %v, want %v", got, optim.ModeHogwild)
		}
	})
	for _, bad := range []struct {
		name      string
		act, mode int
	}{
		{"update mode 7", int(ActReLU), 7},
		{"update mode -1", int(ActReLU), -1},
		{"activation 9", 9, int(optim.ModeHogwild)},
	} {
		t.Run(bad.name, func(t *testing.T) {
			if _, err := LoadModel(bytes.NewReader(file(bad.act, bad.mode))); err == nil {
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
