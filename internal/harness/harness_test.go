package harness

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tinyOpts() Options {
	return Options{Scale: "tiny", Seed: 17, Log: io.Discard, ThreadSweep: []int{2, 4}}
}

// TestAllExperimentsRunAtTinyScale smoke-tests every registered
// table/figure reproduction end to end.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is seconds-long; skipped in -short")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(tinyOpts())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if rep.ID != e.ID {
				t.Fatalf("report id %q != %q", rep.ID, e.ID)
			}
			if len(rep.Tables) == 0 && len(rep.Series) == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			var buf bytes.Buffer
			rep.WriteText(&buf)
			if !strings.Contains(buf.String(), e.ID) {
				t.Fatalf("text output missing experiment id")
			}
		})
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	want := []string{"abl-hash", "abl-rebuild", "abl-strategy", "abl-update", "dist-comm",
		"fig10", "fig11", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"kernels", "multicore", "rebuild", "serving", "table1", "table2", "table3", "table4"}
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for i, e := range exps {
		if e.ID != want[i] {
			t.Fatalf("experiment %d = %q, want %q (sorted)", i, e.ID, want[i])
		}
	}
	if _, ok := Get("fig5"); !ok {
		t.Fatal("Get(fig5) missing")
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("Get(nope) found")
	}
}

func TestScalePresets(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium", "paper"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name {
			t.Fatalf("ScaleByName(%q) = %+v, %v", name, sc, err)
		}
		if sc.DatasetScale <= 0 || sc.DatasetScale > 1 {
			t.Fatalf("%s: bad dataset scale %v", name, sc.DatasetScale)
		}
	}
	if _, err := ScaleByName("giant"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestAutoRangePow(t *testing.T) {
	// Paper-scale Delicious with Simhash K=9: capped by the 9-bit code.
	if got := autoRangePow(205443, 9, 1); got != 9 {
		t.Fatalf("delicious rangePow = %d, want 9", got)
	}
	// Small populations shrink the table instead of starving retrieval.
	if got := autoRangePow(2048, 9, 3); got > 7 {
		t.Fatalf("small-population rangePow = %d, too sparse", got)
	}
	// Never below 4 or above 18.
	if got := autoRangePow(10, 9, 8); got < 4 {
		t.Fatalf("rangePow floor violated: %d", got)
	}
	if got := autoRangePow(1<<30, 9, 8); got > 18 {
		t.Fatalf("rangePow cap violated: %d", got)
	}
}

func TestReportCSVOutput(t *testing.T) {
	dir := t.TempDir()
	rep := &Report{
		ID:     "x",
		Title:  "t",
		Tables: []Table{{Title: "a", Header: []string{"c1", "c2"}, Rows: [][]string{{"1", "2"}}}},
		Series: []Series{{Name: "s one", XLabel: "x", YLabel: "y", X: []float64{1}, Y: []float64{2}}},
	}
	if err := rep.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("wrote %d files, want 2", len(files))
	}
	b, err := os.ReadFile(filepath.Join(dir, "x_table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b); got != "c1,c2\n1,2\n" {
		t.Fatalf("csv = %q", got)
	}
}

func TestWorkloadBeta(t *testing.T) {
	sc, _ := ScaleByName("paper")
	if b := betaFor(sc, 205443); b < 1000 || b > 1100 {
		t.Fatalf("paper-scale delicious beta = %d, expected ~1027 (0.5%%)", b)
	}
	if b := betaFor(sc, 10); b != 10 {
		t.Fatalf("beta should clamp to classes: %d", b)
	}
}
