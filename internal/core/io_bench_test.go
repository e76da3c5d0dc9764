package core

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/lsh"
	"repro/internal/sampling"
)

// benchModel is a CI-sized serving model: 20K features, an input-major
// 128-wide hidden layer and a 5K-class Simhash output layer (serve_open's
// K 6, L 20 and β = classes/20), at a fixed seed.
func benchModel(tb testing.TB) *Network {
	n, err := NewNetwork(Config{
		InputDim: 20000,
		Seed:     23,
		Layers: []LayerConfig{
			{Size: 128, Activation: ActReLU},
			{
				Size: 5000, Activation: ActSoftmax,
				Sampled: true, Hash: lsh.KindSimhash, K: 6, L: 20,
				Strategy: sampling.KindVanilla, Beta: 250,
			},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// BenchmarkSaveModel measures SaveModel into a discarding writer: the
// weight encode in storage order and the generation-1 table build the
// file carries.
func BenchmarkSaveModel(b *testing.B) {
	n := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.SaveModel(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadModel measures LoadModel from an in-memory file — one copy
// into the heap buffer the weights view, the tables decoded, nothing
// hashed — and from a file on disk, which it maps, and reports as
// held-B/param the live heap the last load leaves behind, per parameter:
// from memory, the file's bytes plus the decoded tables and the row
// views; from disk, the tables and the row views only.
func BenchmarkLoadModel(b *testing.B) {
	var file bytes.Buffer
	if err := benchModel(b).SaveModel(&file); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "model.slide")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		load func() (*Network, error)
	}{
		{"memory", func() (*Network, error) { return LoadModel(bytes.NewReader(file.Bytes())) }},
		{"file", func() (*Network, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return LoadModel(f)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var base, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&base)
			b.SetBytes(int64(file.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			var m *Network
			for i := 0; i < b.N; i++ {
				var err error
				if m, err = c.load(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(int64(after.HeapAlloc)-int64(base.HeapAlloc))/float64(m.NumParams()), "held-B/param")
		})
	}
	runtime.KeepAlive(&file)
}
