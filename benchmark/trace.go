package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Parent is the index of the span that caused
// it (-1 for a root); Run names the workload run all its spans share; Count
// is the number of operations a family span covers (1 for a single call).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Count   int64  `json:"count"`
}

// tracer keeps spans in memory until write. A nil tracer is tracing off:
// every method is a no-op, so call sites need no branches. The recorder
// times itself (selfNS) so the traced run can report its own overhead.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	run    string
	spans  []span
	selfNS int64
}

func newTracer(run string) *tracer { return &tracer{t0: time.Now(), run: run} }

// add records a finished span and returns its index for children to name.
func (t *tracer) add(name string, parent int, start, end time.Time, count int64) int {
	if t == nil {
		return -1
	}
	in := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Run: t.run, Count: count,
	})
	id := len(t.spans) - 1
	t.selfNS += time.Since(in).Nanoseconds()
	t.mu.Unlock()
	return id
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func()) {
	start := time.Now()
	f()
	t.add(name, parent, start, time.Now(), 1)
}

// overheadNS is the time spent inside the recorder so far.
func (t *tracer) overheadNS() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.selfNS
}

// family sums one span name: self time is the spans' duration minus the
// part their direct children cover.
type family struct {
	Name    string `json:"name"`
	Spans   int    `json:"spans"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

func (t *tracer) families() []family {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byName := map[string]*family{}
	for i, s := range t.spans {
		f := byName[s.Name]
		if f == nil {
			f = &family{Name: s.Name}
			byName[s.Name] = f
		}
		d := s.EndNS - s.StartNS
		f.Spans++
		f.Count += s.Count
		f.TotalNS += d
		f.SelfNS += max(d-child[i], 0)
	}
	out := make([]family, 0, len(byName))
	for _, f := range byName {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans and their per-name summary as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Run      string   `json:"run"`
		Families []family `json:"families"`
		Spans    []span   `json:"spans"`
	}{t.run, t.families(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
