package core

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sparse"
)

// mapsFiles reports whether LoadModel maps a file on this host rather
// than reading it.
func mapsFiles() bool {
	return littleEndian && (runtime.GOOS == "linux" || runtime.GOOS == "darwin")
}

// saveFile saves n into a fresh file under t's temporary directory and
// returns its path.
func saveFile(t testing.TB, n *Network) string {
	t.Helper()
	var buf bytes.Buffer
	if err := n.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.slide")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// requireMapped fails unless every layer of n points to the mapping of
// its file and its weights and biases lie inside it: a load that copied
// no weight.
func requireMapped(t *testing.T, n *Network) {
	t.Helper()
	if !mapsFiles() {
		return
	}
	m := n.layers[0].file
	if m == nil {
		t.Fatal("a network loaded from a file holds no mapping")
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(m.data)))
	inside := func(s []float32) bool {
		at := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
		return at >= lo && at+4*uintptr(len(s)) <= lo+uintptr(len(m.data))
	}
	for li, l := range n.layers {
		if l.file != m {
			t.Fatalf("layer %d does not point to the network's mapping", li)
		}
		for r, row := range l.w {
			if !inside(row) {
				t.Fatalf("layer %d row %d is not a view of the mapped file", li, r)
			}
		}
		if !inside(l.b) {
			t.Fatalf("layer %d biases are not a view of the mapped file", li)
		}
	}
}

// waitMappings collects garbage until at most max mappings are live, and
// fails if that takes more than a few seconds: cleanups run on their own
// goroutine after the collection that finds a mapping unreachable, and a
// Predictor's pooled states outlive it by up to two collections.
func waitMappings(t *testing.T, max int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); MappedModels() > max; {
		if time.Now().After(deadline) {
			t.Fatalf("%d model files still mapped, want at most %d", MappedModels(), max)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestMappedLoadMatchesRead: for every goldenModelCases row, the network
// loaded from a file on disk — mapped, its weights views of the file — is
// the network loaded from a bytes.Reader: state hash, each sampled
// layer's table fingerprint, and exact and seeded sampled top-5 answers.
func TestMappedLoadMatchesRead(t *testing.T) {
	var xs []sparse.Vector
	for _, idx := range [][]int32{{0, 5, 36}, {3}, {1, 2, 7, 11, 19, 23, 30}} {
		x, err := sparse.New(37, idx, slices.Repeat([]float32{0.75}, len(idx)))
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, x)
	}
	answers := func(n *Network) uint64 {
		var ids [][]int32
		var scores [][]float32
		for xi, x := range xs {
			exactIDs, exactScores, err := n.Predict(x, 5)
			if err != nil {
				t.Fatal(err)
			}
			sampledIDs, sampledScores, err := n.PredictSampled(x, 5, PredictOpts{Seed: uint64(xi + 1)})
			if err != nil {
				t.Fatal(err)
			}
			ids, scores = append(ids, exactIDs, sampledIDs), append(scores, exactScores, sampledScores)
		}
		return answerHash(ids, scores)
	}
	for _, c := range goldenModelCases {
		t.Run(c.name, func(t *testing.T) {
			path := saveFile(t, goldenModel(t, c.cfg))
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			read, err := LoadModel(bytes.NewReader(file))
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := loadFile(t, path)
			if err != nil {
				t.Fatal(err)
			}
			requireMapped(t, mapped)
			if read.layers[0].file != nil {
				t.Fatal("a network read from memory points to a mapping")
			}
			if stateHash(mapped) != stateHash(read) {
				t.Errorf("state hash mapped %#x, read %#x", stateHash(mapped), stateHash(read))
			}
			for li, l := range mapped.layers {
				if l.Sampled() && tableFingerprint(l.Tables()) != tableFingerprint(read.layers[li].Tables()) {
					t.Errorf("layer %d: mapped and read tables differ", li)
				}
			}
			if a, b := answers(mapped), answers(read); a != b {
				t.Errorf("answers hash mapped %#x, read %#x", a, b)
			}
		})
	}
}

// TestMappingsReleased: a mapping is released once no network loaded from
// it is reachable — after 20 loads, each answering a prediction and then
// dropped, collections bring the live count back to 0.
func TestMappingsReleased(t *testing.T) {
	if !mapsFiles() {
		t.Skipf("LoadModel maps no file on %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	path := saveFile(t, goldenModel(t, goldenModelCases[0].cfg))
	x := sparse.Vector{Dim: 37, Idx: []int32{4}, Val: []float32{1}}
	waitMappings(t, 0)
	for range 20 {
		n, err := loadFile(t, path)
		if err != nil {
			t.Fatal(err)
		}
		if MappedModels() != 1 {
			t.Fatalf("%d live mappings with one network loaded", MappedModels())
		}
		if _, _, err := n.Predict(x, 3); err != nil {
			t.Fatal(err)
		}
		waitMappings(t, 0)
	}
}

// TestMappedLoadHeapHoldsTablesAndViews: a load from a file leaves on the
// heap the decoded tables, the row views and under 1 MiB more — no
// weight, at the serving shape of BenchmarkLoadModel.
func TestMappedLoadHeapHoldsTablesAndViews(t *testing.T) {
	if !mapsFiles() {
		t.Skipf("LoadModel maps no file on %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	path := saveFile(t, benchModel(t))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := loadFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	requireMapped(t, m)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	var tables, views int64
	for _, l := range m.layers {
		if tb := l.Tables(); tb != nil {
			tables += 4 * int64(tb.L()) * int64(tb.NumBuckets()+1+l.out)
		}
		views += int64(len(l.w)) * int64(unsafe.Sizeof(l.w[0]))
	}
	if limit := tables + views + 1<<20; held > limit {
		t.Fatalf("a mapped load holds %d bytes: more than %d of tables + %d of row views + 1 MiB", held, tables, views)
	}
	runtime.KeepAlive(m)
}
