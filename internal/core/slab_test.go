package core

import (
	"bytes"
	"runtime"
	"testing"
)

// saveBytes serialises n, failing the test on error.
func saveBytes(t *testing.T, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNetworkSlabsSurviveGC: the arena that carved a network's parameter
// slabs is dropped when construction ends, so the slabs live only through
// the layer slices over them. Collections and fresh heap churn after
// construction must leave every weight and optimizer moment in place.
func TestNetworkSlabsSurviveGC(t *testing.T) {
	ds := tinyDataset(t, 64)
	n, err := NewNetwork(tinyConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{
		Epochs: 1, Seed: 9, Threads: 1, EvalEvery: 0,
	}); err != nil {
		t.Fatal(err)
	}
	before := saveBytes(t, n)
	for i := 0; i < 3; i++ {
		runtime.GC()
		// Slab-sized garbage that would land on freed slab memory.
		junk := make([]float32, 1<<22)
		for j := range junk {
			junk[j] = -1
		}
		runtime.KeepAlive(junk)
	}
	if after := saveBytes(t, n); !bytes.Equal(before, after) {
		t.Fatal("network parameters changed across garbage collections")
	}
}

// TestNetworksShareNoSlabs: each network is built on its own arena, so
// training one network leaves an identically configured sibling bitwise
// untouched.
func TestNetworksShareNoSlabs(t *testing.T) {
	ds := tinyDataset(t, 64)
	a, err := NewNetwork(tinyConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNetwork(tinyConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	fresh := saveBytes(t, b)
	if !bytes.Equal(fresh, saveBytes(t, a)) {
		t.Fatal("identically configured networks differ at init")
	}
	if _, err := a.Train(ds.Train, ds.Test, TrainConfig{
		Epochs: 1, Seed: 9, Threads: 1, EvalEvery: 0,
	}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fresh, saveBytes(t, a)) {
		t.Fatal("training did not change the trained network")
	}
	if !bytes.Equal(fresh, saveBytes(t, b)) {
		t.Fatal("training one network changed its sibling's parameters")
	}
}
