package core

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/lsh"
	"repro/internal/sampling"
)

// loadTrainConfig is deltaTestConfig with a rebuild due early, and with
// columnUnion a sampled first layer, which keeps column stamps over its
// wide fan-in instead of an input-major first layer.
func loadTrainConfig(classes int, columnUnion bool) Config {
	cfg := deltaTestConfig(classes)
	cfg.RebuildN0 = 10
	if columnUnion {
		cfg.Layers[0] = LayerConfig{
			Size: 64, Activation: ActReLU,
			Sampled: true, Hash: lsh.KindSimhash, K: 4, L: 8,
			Strategy: sampling.KindVanilla, Beta: 16,
		}
	}
	return cfg
}

// reload saves n and loads the file back.
func reload(t *testing.T, n *Network) *Network {
	t.Helper()
	var file bytes.Buffer
	if err := n.SaveModel(&file); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(&file)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLoadTrainGoldenHash pins training a loaded network — weights,
// biases and moments after 24 batches through two scheduled rebuilds — to
// hashes recorded while every network still allocated its moments and
// fold scratch at construction, so allocating them at the first step
// moves no bit. The mapped variant loads the file from disk, trains its
// weights through the mapping's private pages to the same hashes, and
// leaves the file's bytes as they were. Recorded on amd64.
func TestLoadTrainGoldenHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64, running on %s", runtime.GOARCH)
	}
	const classes = 128
	ds := deltaTestDataset(t, classes)
	for _, c := range []struct {
		name        string
		columnUnion bool
		want        uint64
	}{
		{"input-major", false, 0x3f5ed9b62c25c198},
		{"column-union", true, 0xdfe3ac620e5b7938},
	} {
		train := func(t *testing.T, n *Network) {
			res, err := n.Train(ds.Train, ds.Test, TrainConfig{BatchSize: 32, Iterations: 24, Threads: 2, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rebuilds != 2 {
				t.Fatalf("%d rebuilds, want 2", res.Rebuilds)
			}
			if got := stateHash(n); got != c.want {
				t.Fatalf("state hash %#x, want %#x", got, c.want)
			}
		}
		t.Run(c.name, func(t *testing.T) {
			train(t, reload(t, mustNet(t, loadTrainConfig(classes, c.columnUnion))))
		})
		t.Run(c.name+"/mapped", func(t *testing.T) {
			path := saveFile(t, mustNet(t, loadTrainConfig(classes, c.columnUnion)))
			saved, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			n, err := loadFile(t, path)
			if err != nil {
				t.Fatal(err)
			}
			requireMapped(t, n)
			train(t, n)
			if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, saved) {
				t.Fatalf("training the loaded network changed its file (%v)", err)
			}
		})
	}
}

// trainState reports which of layer l's training-only fields are
// allocated, by name.
func trainState(l *Layer) map[string]bool {
	return map[string]bool{
		"mW": l.mW != nil, "vW": l.vW != nil, "mB": l.mB != nil, "vB": l.vB != nil,
		"hits": l.hits != nil, "fold.cursor": l.fold.cursor != nil, "fold.bias": l.fold.bias != nil,
		"colStamp": l.colStamp != nil,
	}
}

// requireTrainState fails unless every layer of n holds its training
// state (want) or none of it (!want). colStampLayer is the layer that
// keeps column stamps once trained, -1 for none.
func requireTrainState(t *testing.T, n *Network, want bool, colStampLayer int, when string) {
	t.Helper()
	for li, l := range n.layers {
		for field, held := range trainState(l) {
			if field == "colStamp" && li != colStampLayer {
				if held {
					t.Fatalf("%s: layer %d holds column stamps it never uses", when, li)
				}
				continue
			}
			if held != want {
				t.Fatalf("%s: layer %d %s allocated = %v, want %v", when, li, field, held, want)
			}
		}
	}
}

// TestLoadedNetworkHoldsNoTrainState: a loaded network holds weights,
// biases and tables only, and its moments and fold scratch arrive with the
// first entry that folds or steps a batch — Train or ApplyDelta — but not
// with ExtractDelta, which only copies records, nor with a delta
// ApplyDelta refuses.
func TestLoadedNetworkHoldsNoTrainState(t *testing.T) {
	const classes = 128
	ds := deltaTestDataset(t, classes)
	for _, columnUnion := range []bool{false, true} {
		stampLayer := -1
		if columnUnion {
			stampLayer = 0
		}
		src := mustNet(t, loadTrainConfig(classes, columnUnion))
		if _, err := src.Train(ds.Train, ds.Test, TrainConfig{BatchSize: 32, Iterations: 2, Seed: 9}); err != nil {
			t.Fatal(err)
		}
		requireTrainState(t, src, true, stampLayer, "trained source")
		fresh := mustNet(t, loadTrainConfig(classes, columnUnion))
		requireTrainState(t, fresh, false, stampLayer, "NewNetwork")

		entries := []struct {
			name  string
			run   func(n *Network) error
			state bool
		}{
			{"Train", func(n *Network) error {
				_, err := n.Train(ds.Train, ds.Test, TrainConfig{BatchSize: 32, Iterations: 1, Seed: 9})
				return err
			}, true},
			{"ExtractDelta", func(n *Network) error {
				n.ExtractDelta(nil, 2)
				return nil
			}, false},
			{"ApplyDelta", func(n *Network) error {
				_, err := n.ApplyDelta(&SparseDelta{Layers: make([]LayerDelta, n.NumLayers())}, n.adam.Alpha(1), 1, 2)
				return err
			}, true},
		}
		for _, e := range entries {
			t.Run(fmt.Sprintf("columnUnion=%v/%s", columnUnion, e.name), func(t *testing.T) {
				n := reload(t, src)
				requireTrainState(t, n, false, stampLayer, "after LoadModel")
				if err := e.run(n); err != nil {
					t.Fatal(err)
				}
				requireTrainState(t, n, e.state, stampLayer, "after "+e.name)
			})
		}
		t.Run(fmt.Sprintf("columnUnion=%v/refused ApplyDelta", columnUnion), func(t *testing.T) {
			n := reload(t, src)
			before := stateHash(n)
			// One record, well-formed but for its feature past the input.
			bad := &SparseDelta{Layers: make([]LayerDelta, n.NumLayers())}
			bad.Input.add([]int32{int32(n.cfg.InputDim)}, nil, []float32{1})
			for li, l := range n.layers {
				var delta, vals []float32
				if !l.Sampled() {
					delta = make([]float32, l.out)
					if li < n.NumLayers()-1 {
						vals = make([]float32, l.out)
					}
				}
				bad.Layers[li].add(nil, delta, vals)
			}
			if _, err := n.ApplyDelta(bad, n.adam.Alpha(1), 1, 2); err == nil {
				t.Fatal("ApplyDelta accepted a feature out of range")
			}
			bad.Input.IDs[0] = 0
			if _, err := n.checkDelta(bad); err != nil {
				t.Fatalf("the delta is malformed beyond its feature: %v", err)
			}
			if _, err := n.ApplyDelta(&SparseDelta{}, n.adam.Alpha(1), 1, 2); err == nil {
				t.Fatal("ApplyDelta accepted a delta without layers")
			}
			requireTrainState(t, n, false, stampLayer, "after refused deltas")
			if stateHash(n) != before {
				t.Fatal("a refused delta moved the network")
			}
		})
	}
}

// TestLoadModelHeapHoldsWeightsAndTables: the live heap a load from
// memory leaves behind is the weights, the tables and little else — not
// the Adam moments that would triple it (at the serving shape of
// BenchmarkLoadModel). TestMappedLoadHeapHoldsTablesAndViews is its
// counterpart for a load from a file.
func TestLoadModelHeapHoldsWeightsAndTables(t *testing.T) {
	var file bytes.Buffer
	if err := benchModel(t).SaveModel(&file); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := LoadModel(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	weights := 4 * m.NumParams()
	var tables int64
	for _, l := range m.layers {
		if tb := l.Tables(); tb != nil {
			tables += 4 * int64(tb.L()) * int64(tb.NumBuckets()+1+l.out)
		}
	}
	// At this shape the rest is 1.03 MB: 0.6 MB of row views, and the
	// file's encoded tables and padding, which share the heap buffer the
	// weights view. A load reads its tables from the file and builds
	// none, and the moments alone would be 25.6 MB more.
	const slack = 5 << 18
	if limit := weights + tables + slack; held > limit {
		t.Fatalf("a load holds %d bytes: more than %d of weights + %d of tables + %d", held, weights, tables, slack)
	}
	requireTrainState(t, m, false, -1, "after LoadModel")
	runtime.KeepAlive(m)
	runtime.KeepAlive(&file)
}
