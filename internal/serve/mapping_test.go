package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// waitMappings collects garbage until at most max model files are mapped,
// failing after a few seconds: a replaced engine's mapping is released by
// a cleanup that runs after the collection that finds it unreachable, and
// its Predictor's pooled states outlive it by up to two collections.
func waitMappings(t *testing.T, max int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); core.MappedModels() > max; {
		if time.Now().After(deadline) {
			t.Fatalf("%d model files still mapped, want at most %d", core.MappedModels(), max)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// settledMappings is the count of mappings earlier tests leave live once
// collections have released what they can.
func settledMappings() int64 {
	for range 5 {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return core.MappedModels()
}

// answers posts a fixed set of exact and seeded sampled requests and
// returns each answer's ids and scores.
func answers(t *testing.T, url string) [][2]any {
	t.Helper()
	var got [][2]any
	for i := range 8 {
		body := fmt.Sprintf(`{"indices":[%d,%d],"values":[1.0,0.5],"k":4}`, i, 63-i)
		if i%2 == 1 {
			body = fmt.Sprintf(`{"indices":[%d,%d],"values":[1.0,0.5],"k":4,"sampled":true,"seed":%d}`, i, 63-i, i)
		}
		code, pr := postPredict(t, url, body)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		got = append(got, [2]any{pr.IDs, pr.Scores})
	}
	return got
}

// TestModelFileRenamedOverKeepsServing: a new model file renamed over the
// -model path of a running server — the way a model file is replaced —
// leaves the server answering from the file it loaded, bit for bit, even
// across collections, until ReloadFrom switches it to the new one.
func TestModelFileRenamedOverKeepsServing(t *testing.T) {
	dir := t.TempDir()
	path := modelFile(t, dir, 41)
	s := serverFromFile(t, path, Options{BatchWindow: 0})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	old := answers(t, ts.URL)

	next := filepath.Join(t.TempDir(), "next")
	if err := os.Rename(modelFile(t, dir, 42), next); err != nil {
		t.Fatal(err)
	}
	fresh := httptest.NewServer(serverFromFile(t, next, Options{BatchWindow: 0}).Handler())
	want := answers(t, fresh.URL)
	fresh.Close()
	if reflect.DeepEqual(want, old) {
		t.Fatal("the two models answer alike")
	}
	if err := os.Rename(next, path); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if got := answers(t, ts.URL); !reflect.DeepEqual(got, old) {
		t.Fatalf("after the rename the server answered %v, want its loaded model's %v", got, old)
	}
	if _, _, err := s.ReloadFrom(path); err != nil {
		t.Fatal(err)
	}
	if got := answers(t, ts.URL); !reflect.DeepEqual(got, want) {
		t.Fatalf("after ReloadFrom the server answered %v, want the new file's %v", got, want)
	}
}

// TestReloadReleasesMappings: across 20 ReloadFrom calls on a live server,
// each followed by requests, at most two model files are mapped — the
// serving one and the one it replaced — and the replaced one is released
// once collections find it unreachable.
func TestReloadReleasesMappings(t *testing.T) {
	dir := t.TempDir()
	paths := []string{modelFile(t, dir, 51), modelFile(t, dir, 52)}
	base := settledMappings()
	s := serverFromFile(t, paths[0], Options{BatchWindow: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for i := range 20 {
		if _, _, err := s.ReloadFrom(paths[(i+1)%2]); err != nil {
			t.Fatal(err)
		}
		answers(t, ts.URL)
		if n := core.MappedModels() - base; n > 2 {
			t.Fatalf("reload %d: %d model files mapped, want at most 2", i, n)
		}
		waitMappings(t, base+1)
	}
}
