package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/lsh"
	"repro/internal/sampling"
	"repro/internal/sparse"
)

// v4File assembles a model file from hand-written config JSON and
// all-zero weights for the given layer shapes (in, out, activation), each
// section at its page-aligned offset. It carries no table sections, so
// only a file of dense layers can load.
func v4File(cfgJSON string, layers [][3]uint32) []byte {
	b := []byte(modelMagic)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cfgJSON)))
	b = append(b, cfgJSON...)
	for _, l := range layers {
		for _, v := range l {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		b = append(b, make([]byte, alignUp(len(b))-len(b)+4*int(l[0]*l[1]))...)
		b = append(b, make([]byte, alignUp(len(b))-len(b)+4*int(l[1]))...)
	}
	return b
}

// alignUp rounds off up to a multiple of sectionAlign.
func alignUp(off int) int { return (off + sectionAlign - 1) &^ (sectionAlign - 1) }

// sectionsOf returns where file's header places its sections.
func sectionsOf(t testing.TB, file []byte) []layerSections {
	t.Helper()
	cfg, at, err := decodeHeader(file)
	if err != nil {
		t.Fatal(err)
	}
	sections, _ := layout(cfg, at)
	return sections
}

// withConfig returns file with its config JSON replaced by cfgJSON and
// every section moved to where the new header places it.
func withConfig(t testing.TB, file, cfgJSON []byte) []byte {
	t.Helper()
	from := sectionsOf(t, file)
	out := binary.LittleEndian.AppendUint32([]byte(modelMagic), uint32(len(cfgJSON)))
	out = append(out, cfgJSON...)
	cfg, at, err := decodeHeader(out)
	if err != nil {
		t.Fatal(err)
	}
	to, size := layout(cfg, at)
	out = append(out, make([]byte, size-int64(len(out)))...)
	for li, s := range from {
		d := to[li]
		copy(out[d.shape:], file[s.shape:s.shape+12])
		for _, p := range [][2]span{{d.w, s.w}, {d.b, s.b}, {d.offs, s.offs}, {d.ids, s.ids}} {
			copy(out[p[0].at:], file[p[1].at:p[1].end])
		}
	}
	return out
}

// TestLoadModelValidatesConfig: a model file's config JSON is input like
// any other. Files of every retired update mode (0, 1, 2) load, with the
// key ignored; an unknown activation is an error rather than a network
// that applies no non-linearity, a shape int32 indices cannot address is
// an error before any weight memory is sized for it, and so are a rebuild
// schedule with a negative N0 or a λ beyond float64, Adam
// hyperparameters that cannot train, a kind that cannot run and a
// sampled layer sizing more hash functions or table offsets than
// validate allows.
func TestLoadModelValidatesConfig(t *testing.T) {
	file := func(act int, extra string) []byte {
		cfg := fmt.Sprintf(`{"InputDim":8,"Layers":[{"Size":4,"Activation":%d},{"Size":3,"Activation":1}]%s}`, act, extra)
		return v4File(cfg, [][3]uint32{{8, 4, uint32(act)}, {4, 3, uint32(ActSoftmax)}})
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
		{"layer size 2^50", v4File(`{"InputDim":4,"Layers":[{"Size":1125899906842624,"Activation":1}]}`, nil)},
		{"layer 70000x70000", v4File(`{"InputDim":70000,"Layers":[{"Size":70000,"Activation":1}]}`, nil)},
		{"input dim 2^31", v4File(`{"InputDim":2147483648,"Layers":[{"Size":1,"Activation":1}]}`, nil)},
		{"rebuild N0 -3", v4File(`{"InputDim":4,"Layers":[{"Size":1,"Activation":1}],"RebuildN0":-3}`, nil)},
		{"rebuild lambda 1e999", v4File(`{"InputDim":4,"Layers":[{"Size":1,"Activation":1}],"RebuildLambda":1e999}`, nil)},
		{"Adam Beta1 1", v4File(`{"InputDim":4,"Layers":[{"Size":1,"Activation":1}],"Adam":{"LR":0.001,"Beta1":1,"Beta2":0.999,"Eps":1e-8}}`, nil)},
		{"Adam LR -0.001", v4File(`{"InputDim":4,"Layers":[{"Size":1,"Activation":1}],"Adam":{"LR":-0.001,"Beta1":0.9,"Beta2":0.999,"Eps":1e-8}}`, nil)},
		{"Adam Eps 0", v4File(`{"InputDim":4,"Layers":[{"Size":1,"Activation":1}],"Adam":{"LR":0.001,"Beta1":0.9,"Beta2":0.999,"Eps":0}}`, nil)},
	} {
		t.Run(bad.name, func(t *testing.T) {
			if _, err := LoadModel(bytes.NewReader(bad.data)); err == nil {
				t.Error("LoadModel accepted the file")
			}
		})
	}
	// A sampled layer naming a kind that cannot run — a removed hash
	// family (1 and 3), strategy (1 TopK, 2 hard thresholding) or policy
	// (1 FIFO), or an unknown one — is refused by name from the header
	// alone, before any layer is allocated or any weight read.
	for _, tc := range []struct{ field, want string }{
		{`"Hash":1`, "Kind(1)"}, {`"Hash":3`, "Kind(3)"}, {`"Hash":9`, "Kind(9)"},
		{`"Strategy":1`, "Kind(1)"}, {`"Strategy":2`, "Kind(2)"}, {`"Strategy":9`, "Kind(9)"},
		{`"Policy":1`, "Policy(1)"}, {`"Policy":9`, "Policy(9)"},
	} {
		t.Run(tc.field, func(t *testing.T) {
			data := v4File(`{"InputDim":4,"Layers":[{"Size":8,"Activation":1,"Sampled":true,`+tc.field+`,"K":2,"L":2,"Beta":2}]}`, nil)
			if _, err := LoadModel(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("LoadModel error %v, want one naming %s", err, tc.want)
			}
		})
	}
	// A file of a few hundred bytes, whole weights included, whose K, L
	// or RangePow would size gigabytes of hash functions or table offsets
	// is refused by field, on both families, having allocated almost
	// nothing.
	for _, tc := range hostileTableFiles() {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := LoadModel(bytes.NewReader(tc.data))
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("LoadModel error %v, want one naming %s", err, tc.want)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("refusing the file allocated %d bytes, want < 1 MiB", grew)
			}
		})
	}
}

type hostileFile struct {
	name, want string
	data       []byte
}

// hostileTableFiles are 8×8 sampled-layer model files, weights included,
// whose config asks for more hash functions (K·L) or table offsets
// (L·2^RangePow) than validate allows — before validate bounded them,
// each died out of memory — with the field each refusal must name.
func hostileTableFiles() []hostileFile {
	var files []hostileFile
	for _, hash := range []lsh.Kind{lsh.KindSimhash, lsh.KindDWTA} {
		for _, tc := range []struct{ shape, want string }{
			{`"K":100000000,"L":1`, "K·L"},
			{`"K":1000000,"L":1`, "K·L"},
			{`"K":2,"L":100000000`, "K·L"},
			{`"K":2,"L":3,"RangePow":26`, "RangePow"},
			{`"K":2,"L":3,"RangePow":28`, "RangePow"},
		} {
			cfg := fmt.Sprintf(`{"InputDim":8,"Layers":[{"Size":8,"Activation":1,"Sampled":true,"Hash":%d,%s,"Beta":2}]}`, hash, tc.shape)
			files = append(files, hostileFile{
				fmt.Sprintf("%v %s", hash, tc.shape), tc.want, v4File(cfg, [][3]uint32{{8, 8, uint32(ActSoftmax)}}),
			})
		}
	}
	return files
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
	if err := n.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	after, err := m.Evaluate(ds.Test, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if before.P1 != after.P1 {
		t.Fatalf("P@1 changed across save/load: %v vs %v", before.P1, after.P1)
	}
	// Weights and biases must match exactly.
	for li := range n.layers {
		for j := 0; j < n.layers[li].out; j++ {
			if !slices.Equal(n.layers[li].Weights(j), m.layers[li].Weights(j)) || n.layers[li].Bias(j) != m.layers[li].Bias(j) {
				t.Fatalf("layer %d neuron %d differs after load", li, j)
			}
		}
	}
}

// TestSaveModelChangesNothing: SaveModel builds the tables it writes
// into a detached set, so a save between two training runs leaves the
// second run where it would be without it — weights, moments, published
// tables and the rows its rebuild hashed (one is due at batch 50, inside
// the second run) — and the file is the same at GOMAXPROCS 1 and 4 and
// from two saves in a row.
func TestSaveModelChangesNothing(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	const classes = 128
	ds := tinyDataset(t, classes)
	run := func(save bool) (uint64, uint64, *TrainResult, []byte) {
		n := mustNet(t, tinyConfig(classes))
		if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 30, Seed: 5, EvalEvery: 0}); err != nil {
			t.Fatal(err)
		}
		var files [3]bytes.Buffer
		if save {
			published, gen, hashed := n.layers[1].Tables(), n.rebuildGen, n.rowsHashed()
			for i, p := range []int{1, 4, 4} {
				runtime.GOMAXPROCS(p)
				if err := n.SaveModel(&files[i]); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GOMAXPROCS(procs)
			if n.layers[1].Tables() != published || n.rebuildGen != gen || n.rowsHashed() != hashed {
				t.Fatal("SaveModel moved the published tables, the table generation or the rows hashed")
			}
			for i := 1; i < len(files); i++ {
				if !bytes.Equal(files[i].Bytes(), files[0].Bytes()) {
					t.Fatalf("save %d differs from the first", i)
				}
			}
		}
		res, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 30, Seed: 6, EvalEvery: 0})
		if err != nil {
			t.Fatal(err)
		}
		if n.Rebuilds() != 1 {
			t.Fatalf("%d scheduled rebuilds, want the one due at batch 50", n.Rebuilds())
		}
		return stateHash(n), tableFingerprint(n.layers[1].Tables()), res, files[0].Bytes()
	}
	state, tables, res, _ := run(false)
	savedState, savedTables, savedRes, file := run(true)
	if savedState != state || savedTables != tables {
		t.Errorf("with a save between the runs: state %#x, tables %#x; without: %#x, %#x", savedState, savedTables, state, tables)
	}
	if savedRes.RowsRehashed != res.RowsRehashed || res.RowsRehashed != classes {
		t.Errorf("the second run rehashed %d rows with a save before it and %d without, want %d", savedRes.RowsRehashed, res.RowsRehashed, classes)
	}
	// The file holds the generation-1 tables of the weights it was saved
	// with, not the network's published ones.
	m, err := LoadModel(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	m.RebuildTables(0)
	var rebuilt bytes.Buffer
	if err := m.SaveModel(&rebuilt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt.Bytes(), file) {
		t.Error("a rebuild of the loaded network's tables changed the file it saves")
	}
}

// TestLoadRejectsBadInput: garbage is not a model, and weights whose layer
// shapes disagree with the file's config — a 64-class model's weights
// behind a 128-class config — are refused.
func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage accepted")
	}
	save := func(classes int) []byte {
		var buf bytes.Buffer
		if err := mustNet(t, tinyConfig(classes)).SaveModel(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	small, big := save(64), save(128)
	// Layer 0 is the same in both and ends at the same offset; behind it,
	// the small model's layer 1, padded to the big model's size, so only
	// the shape check can refuse it.
	end0 := sectionsOf(t, big)[0].end()
	if sectionsOf(t, small)[0].end() != end0 {
		t.Fatal("layer 0 ends at different offsets")
	}
	spliced := append(slices.Clone(big[:end0]), small[end0:]...)
	spliced = append(spliced, make([]byte, len(big)-len(spliced))...)
	_, err := LoadModel(bytes.NewReader(spliced))
	if err == nil || !strings.Contains(err.Error(), "layer 1: shape") {
		t.Fatalf("shape mismatch: got %v, want a layer 1 shape error", err)
	}
}

// TestLoadModelRefusesDamagedFile: a truncated or corrupt model file is an
// error and no network. A file cut short is io.ErrUnexpectedEOF naming
// the layer it ends in — also from a reader that cannot report its length
// in advance, inside a row of the input-major layer and inside the
// tables — and a file whose config declares more weight and table bytes
// than it holds is refused before any layer is sized, with both sizes.
func TestLoadModelRefusesDamagedFile(t *testing.T) {
	const classes = 64
	ds := tinyDataset(t, classes)
	n := mustNet(t, tinyConfig(classes))
	if _, err := n.Train(ds.Train, ds.Test, TrainConfig{Iterations: 5, Seed: 3, EvalEvery: 0}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	// Layer 0 is input-major; layer 1 is sampled, and its tables end the
	// file.
	sec := sectionsOf(t, file)
	l0, l1 := n.layers[0], n.layers[1]
	corrupt := append([]byte(nil), file...)
	binary.LittleEndian.PutUint32(corrupt[sec[1].shape:], 7)
	// A hollow 98-byte file: a million inputs and no weights behind them.
	hollow := v4File(`{"InputDim":1000000,"Layers":[{"Size":128,"Activation":0},{"Size":64,"Activation":1}]}`, nil)
	if len(hollow) != 98 {
		t.Fatalf("hollow file is %d bytes", len(hollow))
	}
	for _, c := range []struct {
		name string
		data []byte
		want string // in the error
	}{
		{"truncated by 100 bytes", file[:len(file)-100], "declares"},
		{"truncated in layer 0", file[:sec[1].shape-4], "declares"},
		{"corrupt last layer shape", corrupt, "layer 1: shape 7x"},
		{"98-byte header", hollow, "declares 512041118 bytes of weights and tables, the file holds 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := LoadModel(bytes.NewReader(c.data))
			if err == nil || m != nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("LoadModel = %v, %v; want no network and an error containing %q", m, err, c.want)
			}
		})
	}
	// A plain io.Reader hides its length, so the short read itself must
	// report the end: inside an input row of layer 0, in the padding
	// before layer 1's weights, inside a neuron row of layer 1, in layer
	// 1's biases, in the padding before its table ids and in them.
	if sec[1].w.at-sec[1].shape-12 < 2 || sec[1].ids.at-sec[1].offs.end < 2 {
		t.Fatal("no padding to cut inside")
	}
	for name, c := range map[string]struct {
		cut   int64
		layer string
	}{
		"inside a layer 0 row":               {sec[0].w.at + 4*int64(3*l0.out+5), "layer 0: weights"},
		"inside padding before layer 1 rows": {sec[1].w.at - 2, "layer 1: weights"},
		"inside a layer 1 row":               {sec[1].w.at + 4*int64(3*l1.in+7), "layer 1: weights"},
		"inside layer 1's biases":            {sec[1].b.end - 2, "layer 1: biases"},
		"inside padding before table ids":    {sec[1].ids.at - 2, "layer 1: tables"},
		"inside layer 1's tables":            {int64(len(file)) - 2, "layer 1: tables"},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := LoadModel(io.MultiReader(bytes.NewReader(file[:c.cut])))
			if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), c.layer) {
				t.Fatalf("LoadModel of a file cut at byte %d: %v, want io.ErrUnexpectedEOF in %s", c.cut, err, c.layer)
			}
		})
	}
}

// TestLoadModelRefusesHostileTables: a v4 file whose tables are out of
// bounds is an error and no network, never a panic: a table that does not
// start at its region ti·rows, a decreasing offset, an offset past the
// region, a bucket of BucketSize+1 ids and an id equal to rows. So are
// padding that is not zero, a file cut inside the padding, inside the
// tables or inside the last section, by the early size check before any
// layer is sized, and a v2 or v3 file, by name. Each is refused from a
// sized reader, from a stream and mapped from disk, and the header-sized
// refusals allocate under 1 MiB.
func TestLoadModelRefusesHostileTables(t *testing.T) {
	c := goldenModelCases[0] // the sampled output layer: 60 rows, L 4, 2^5 buckets of 8
	var f bytes.Buffer
	if err := goldenModel(t, c.cfg).SaveModel(&f); err != nil {
		t.Fatal(err)
	}
	file := f.Bytes()
	const rows, l, nb, bs = 60, 4, 32, 8
	sec := sectionsOf(t, file)
	offsAt, idsAt := sec[1].offs.at, sec[1].ids.at
	// withTable returns the file with table ti's offsets replaced by offs.
	withTable := func(ti int, offs ...uint32) []byte {
		b := slices.Clone(file)
		for i, o := range offs {
			binary.LittleEndian.PutUint32(b[offsAt+4*int64(ti*(nb+1)+i):], o)
		}
		return b
	}
	flat := func(from int, v uint32) []uint32 { // from copies of v filling a table's offsets
		return slices.Repeat([]uint32{v}, nb+1-from)
	}
	// withByte returns the file with the byte at off set to 1.
	withByte := func(off int64) []byte {
		b := slices.Clone(file)
		b[off] = 1
		return b
	}
	idRows := slices.Clone(file)
	binary.LittleEndian.PutUint32(idRows[idsAt:], rows)
	v2 := append([]byte("SLIDEv2\n"), file[8:]...)
	v3 := append([]byte("SLIDEv3\n"), file[8:]...)
	dir := t.TempDir()
	for i, tc := range []struct {
		name  string
		data  []byte
		want  string
		small bool // refused from the header: must allocate < 1 MiB
	}{
		{"table 1 starts at rows+1", withTable(1, flat(0, rows+1)...), "table 1 starts at 61, not at its region 60", false},
		{"decreasing offset", withTable(0, append([]uint32{0, 5}, flat(2, 4)...)...), "table 0 bucket 1: offsets decrease from 5 to 4", false},
		{"offset past the region", withTable(0, append(flat(1, 0), rows+1)...), "table 0 ends at 61, past its region's end 60", false},
		{"bucket of BucketSize+1", withTable(0, append([]uint32{0}, flat(1, bs+1)...)...), "table 0 bucket 0 holds 9 ids, more than BucketSize 8", false},
		{"id equal to rows", idRows, "table 0 holds id 60, not below rows 60", false},
		{"non-zero padding before layer 0's weights", withByte(sec[0].w.at - 1), "layer 0: weights: the padding before them is not zero", false},
		{"non-zero padding before the table ids", withByte(idsAt - 1), "layer 1: tables: the padding before them is not zero", false},
		{"cut inside the padding", file[:idsAt-1], "declares", true},
		{"cut inside the tables", file[:idsAt+8], "declares", true},
		{"cut inside the last section", file[:len(file)-2], "declares", true},
		{"v2 header", v2, "format v2 and this build reads only v4; re-save", true},
		{"v2 header alone", v2[:12+int(binary.LittleEndian.Uint32(v2[8:]))], "format v2", true},
		{"v3 header", v3, "format v3 and this build reads only v4; re-save", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := LoadModel(bytes.NewReader(tc.data))
			runtime.ReadMemStats(&after)
			if err == nil || m != nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadModel = %v, %v; want no network and an error containing %q", m, err, tc.want)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; tc.small && grew >= 1<<20 {
				t.Errorf("refusing the file allocated %d bytes, want < 1 MiB", grew)
			}
			if _, err := LoadModel(io.MultiReader(bytes.NewReader(tc.data))); err == nil {
				t.Error("LoadModel from a stream accepted the file")
			}
			path := filepath.Join(dir, fmt.Sprint(i))
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if m, err := loadFile(t, path); err == nil || m != nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadModel from disk = %v, %v; want no network and an error containing %q", m, err, tc.want)
			}
		})
	}
}

// loadFile loads the model file at path through an *os.File, which
// LoadModel maps where it can.
func loadFile(t testing.TB, path string) (*Network, error) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return LoadModel(f)
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
	if len(data) < 12 || string(data[:8]) != modelMagic {
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
// files of every layer orientation plus truncated, retired and hostile
// ones and ones with non-zero or cut padding: it must return an error or
// a network, never panic, and a network it returns must answer a sampled
// prediction and re-save to bytes that load back to the same network.
// Each input is also loaded through a reader that hides its length, which
// skips the up-front size check, so a short file must fail in the decode
// instead, and from a file, which LoadModel maps; all three must agree.
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
		{InputDim: 30, Seed: 2, Layers: []LayerConfig{sampled(20, ActSoftmax, lsh.KindDWTA)}},
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
		// Cut inside the weights and, where the last layer is sampled,
		// halfway through its tables.
		f.Add(buf.Bytes()[:buf.Len()/2])
		if tb := n.layers[len(n.layers)-1].Tables(); tb != nil {
			_, ids := tb.Config().EncodedSizes(n.OutputDim())
			f.Add(buf.Bytes()[:buf.Len()-int(ids)/2])
		}
	}
	// Retired formats: a v2 header over a whole v2-sized file.
	v2 := v4File(`{"InputDim":12,"Layers":[{"Size":5,"Activation":1}]}`, [][3]uint32{{12, 5, 1}})
	f.Add(append([]byte("SLIDEv2\n"), v2[8:]...))
	f.Add(v4File(`{"InputDim":1048576,"Layers":[{"Size":1048576,"Activation":1}]}`, nil))
	f.Add(v4File(`{"InputDim":30,"Layers":[{"Size":20,"Activation":1,"Sampled":true,"Hash":2,"K":2,"L":3,"RangePow":3,"Beta":6,"BinSize":-1}]}`, [][3]uint32{{30, 20, 1}}))
	// Kinds that cannot run: the removed hash families 1 and 3, the
	// removed strategies 1 and 2 and policy 1, and an unknown strategy and
	// policy, each with whole weights.
	for _, field := range []string{`"Hash":1`, `"Hash":3`, `"Strategy":1`, `"Strategy":2`, `"Strategy":9`, `"Policy":1`, `"Policy":9`} {
		f.Add(v4File(`{"InputDim":30,"Layers":[{"Size":20,"Activation":1,"Sampled":true,`+field+`,"K":2,"L":3,"RangePow":3,"Beta":6}]}`, [][3]uint32{{30, 20, 1}}))
	}
	// Hash functions or table offsets a small file cannot be allowed to
	// size.
	for _, tc := range hostileTableFiles() {
		f.Add(tc.data)
	}
	f.Add(append([]byte(modelMagic), 0xff, 0xff, 0xff, 0xff))
	// v4 boundaries: a byte of padding set, and a file cut inside the
	// padding before the last layer's weights.
	dense := v4File(`{"InputDim":12,"Layers":[{"Size":8,"Activation":0},{"Size":5,"Activation":1}]}`, [][3]uint32{{12, 8, 0}, {8, 5, 1}})
	last := sectionsOf(f, dense)[1]
	padded := slices.Clone(dense)
	padded[last.w.at-1] = 1
	f.Add(padded)
	f.Add(dense[:last.w.at-1])
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if !fuzzAffordable(data) {
			t.Skip("declares more than the harness builds")
		}
		n, err := LoadModel(bytes.NewReader(data))
		if _, errStream := LoadModel(io.MultiReader(bytes.NewReader(data))); (err == nil) != (errStream == nil) {
			t.Fatalf("LoadModel from a sized reader: %v; from a stream: %v", err, errStream)
		}
		// The same bytes in a file, which LoadModel maps where it can.
		file, errFile := os.CreateTemp(dir, "")
		if errFile != nil {
			t.Fatal(errFile)
		}
		defer os.Remove(file.Name())
		defer file.Close()
		if _, errFile = file.Write(data); errFile != nil {
			t.Fatal(errFile)
		}
		if _, errFile = file.Seek(0, io.SeekStart); errFile != nil {
			t.Fatal(errFile)
		}
		if _, errFile = LoadModel(file); (err == nil) != (errFile == nil) {
			t.Fatalf("LoadModel from a sized reader: %v; from a file: %v", err, errFile)
		}
		if err != nil {
			return
		}
		// Tables are checked for bounds only, which must be enough for a
		// sampled pass over them.
		x := sparse.Vector{Dim: n.cfg.InputDim, Idx: []int32{0}, Val: []float32{1}}
		if _, _, err := n.PredictSampled(x, 3, PredictOpts{Seed: 1}); err != nil {
			t.Fatalf("sampled prediction on the loaded network: %v", err)
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

// goldenModel builds a fixed-seed network of one of the pinned model-file
// shapes with distinct biases, so the file carries every field in order.
func goldenModel(t *testing.T, cfg Config) *Network {
	n := mustNet(t, cfg)
	for li, l := range n.layers {
		for j := range l.b[:l.out] {
			l.b[j] = float32(li*1000+j) / 64
		}
	}
	return n
}

// goldenModelCases are the model-file goldens' shapes: (a) an input-major
// first layer 100 neurons wide over fan-in 37, and (b) a sampled
// neuron-major first layer. Both end in a sampled layer, so the table equality has tables to
// compare.
var goldenModelCases = []struct {
	name string
	cfg  Config
	want uint64
}{
	{"input-major 37x100", Config{InputDim: 37, Seed: 11, Layers: []LayerConfig{
		{Size: 100, Activation: ActReLU},
		{Size: 60, Activation: ActSoftmax, Sampled: true, Hash: lsh.KindSimhash, K: 3, L: 4, RangePow: 5, BucketSize: 8, Strategy: sampling.KindVanilla, Beta: 6},
	}}, 0x65d99fe51a6ec4ed},
	{"sampled neuron-major 37x100", Config{InputDim: 37, Seed: 12, Layers: []LayerConfig{
		{Size: 100, Activation: ActReLU, Sampled: true, Hash: lsh.KindDWTA, K: 2, L: 5, RangePow: 4, BucketSize: 8, Strategy: sampling.KindVanilla, Beta: 6},
		{Size: 30, Activation: ActSoftmax},
	}}, 0x18639e936021282a},
}

// TestSaveModelGolden pins the model file's bytes — FNV-64a of SaveModel
// for the goldenModelCases networks, recorded before the codec that
// streams weights through block buffers replaced per-neuron
// binary.Write, and re-recorded when the weight init moved to row-keyed
// streams (TestSaveModelFormulaGolden pins the codec apart from the
// init), again when the file became v3, weights in storage order and the
// generation-1 tables in the file (TestLoadModelGolden shows that the
// network a file loads to did not move), and again when v4 put every
// section at a page-aligned offset — and checks that a file re-saves
// to itself and that loading it gives the source's generation-1 rebuild
// of the tables. Recorded on amd64 (see TestTrainingGoldenHash).
func TestSaveModelGolden(t *testing.T) {
	for _, c := range goldenModelCases {
		t.Run(c.name, func(t *testing.T) {
			n := goldenModel(t, c.cfg)
			var f, again bytes.Buffer
			if err := n.SaveModel(&f); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(f.Bytes())
			if got := h.Sum64(); got != c.want && runtime.GOARCH == "amd64" {
				t.Errorf("SaveModel hash %#x (%d bytes), want %#x", got, f.Len(), c.want)
			}
			m, err := LoadModel(bytes.NewReader(f.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SaveModel(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), f.Bytes()) {
				t.Fatal("SaveModel(LoadModel(f)) differs from f")
			}
			n.rebuildGen = 0
			n.RebuildTables(0)
			for li, l := range n.layers {
				if l.Sampled() && tableFingerprint(l.Tables()) != tableFingerprint(m.layers[li].Tables()) {
					t.Errorf("layer %d: loaded tables differ from the source's generation-1 rebuild", li)
				}
			}
		})
	}
}

// formulaModel is goldenModel with every weight overwritten by a fixed
// formula of its storage row r and column c, so the network's weights do
// not depend on the random init.
func formulaModel(t *testing.T, cfg Config) *Network {
	n := goldenModel(t, cfg)
	for _, l := range n.layers {
		for r, row := range l.w {
			for c := range row {
				row[c] = float32(math.Sin(0.37*float64(r)+0.11*float64(c)) * 0.05)
			}
		}
	}
	return n
}

// TestSaveModelFormulaGolden pins the model file's bytes independently of
// the weight init: FNV-64a of SaveModel for the goldenModelCases shapes
// with formulaModel's weights, recorded before the init drew each storage
// row from its own stream and re-recorded when the file became v3 and
// v4. A change to the init may not move these; a change to the codec
// must.
func TestSaveModelFormulaGolden(t *testing.T) {
	want := []uint64{0xe5bd04187f26240a, 0x501c031cff0dd17d}
	for i, c := range goldenModelCases {
		t.Run(c.name, func(t *testing.T) {
			var f bytes.Buffer
			if err := formulaModel(t, c.cfg).SaveModel(&f); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(f.Bytes())
			if got := h.Sum64(); got != want[i] && runtime.GOARCH == "amd64" {
				t.Errorf("SaveModel hash %#x (%d bytes), want %#x", got, f.Len(), want[i])
			}
		})
	}
}

// TestLoadModelGolden pins the network a model file loads to, not the
// file's bytes: for each goldenModelCases row, the stateHash of
// LoadModel(SaveModel(goldenModel)), each sampled layer's
// tableFingerprint, and the exact and seeded sampled top-5 answers on a
// few inputs. All were recorded from v2 files, whose load rebuilt the
// tables at generation 1, so a format that carries the tables must
// reproduce them. Recorded on amd64 (see TestTrainingGoldenHash).
func TestLoadModelGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64, running on %s", runtime.GOARCH)
	}
	want := []struct {
		state          uint64
		tables         []uint64 // by layer; 0 for a dense one
		exact, sampled uint64
	}{
		{0xe2fe5f638b0b7948, []uint64{0, 0x5a68117e5c1dc83c}, 0x26c55d462c558674, 0x46bab09b325deb89},
		{0x05f1564e94814913, []uint64{0x6bfac407316e16b6, 0}, 0x4546c592084daee5, 0xcdcb1b1d0eb41679},
	}
	var xs []sparse.Vector
	for _, v := range [][2][]float32{
		{{0, 5, 36}, {1, 0.5, 2}},
		{{3}, {1}},
		{{1, 2, 7, 11, 19, 23, 30}, {0.3, -1, 2, 0.25, 1, -0.5, 4}},
		{{8, 16, 24, 32}, {1, 1, 1, 1}},
	} {
		idx := make([]int32, len(v[0]))
		for i, f := range v[0] {
			idx[i] = int32(f)
		}
		x, err := sparse.New(37, idx, v[1])
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, x)
	}
	for i, c := range goldenModelCases {
		t.Run(c.name, func(t *testing.T) {
			var f bytes.Buffer
			if err := goldenModel(t, c.cfg).SaveModel(&f); err != nil {
				t.Fatal(err)
			}
			m, err := LoadModel(bytes.NewReader(f.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got := stateHash(m); got != want[i].state {
				t.Errorf("loaded state hash %#x, want %#x", got, want[i].state)
			}
			for li, l := range m.layers {
				var got uint64
				if l.Sampled() {
					got = tableFingerprint(l.Tables())
				}
				if got != want[i].tables[li] {
					t.Errorf("layer %d: table fingerprint %#x, want %#x", li, got, want[i].tables[li])
				}
			}
			var exactIDs, sampledIDs [][]int32
			var exactScores, sampledScores [][]float32
			for xi, x := range xs {
				ids, scores, err := m.Predict(x, 5)
				if err != nil {
					t.Fatal(err)
				}
				exactIDs, exactScores = append(exactIDs, ids), append(exactScores, scores)
				if ids, scores, err = m.PredictSampled(x, 5, PredictOpts{Seed: uint64(xi + 1)}); err != nil {
					t.Fatal(err)
				}
				sampledIDs, sampledScores = append(sampledIDs, ids), append(sampledScores, scores)
			}
			if got := answerHash(exactIDs, exactScores); got != want[i].exact {
				t.Errorf("exact answers hash %#x, want %#x", got, want[i].exact)
			}
			if got := answerHash(sampledIDs, sampledScores); got != want[i].sampled {
				t.Errorf("seeded sampled answers hash %#x, want %#x", got, want[i].sampled)
			}
		})
	}
}
