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
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/lsh"
	"repro/internal/sampling"
)

// v2File assembles a v2 model file from hand-written config JSON and
// all-zero weights for the given layer shapes (in, out, activation).
func v2File(cfgJSON string, layers [][3]uint32) []byte {
	b := []byte(modelMagic)
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
// that applies no non-linearity, a shape int32 indices cannot address is
// an error before any weight memory is sized for it, and so are a rebuild
// schedule with a negative N0 or a λ beyond float64, Adam
// hyperparameters that cannot train, a kind that cannot run and a
// sampled layer sizing more hash functions or table offsets than
// validate allows.
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
		{"rebuild N0 -3", v2File(`{"InputDim":4,"Layers":[{"Size":1,"Activation":1}],"RebuildN0":-3}`, nil)},
		{"rebuild lambda 1e999", v2File(`{"InputDim":4,"Layers":[{"Size":1,"Activation":1}],"RebuildLambda":1e999}`, nil)},
		{"Adam Beta1 1", v2File(`{"InputDim":4,"Layers":[{"Size":1,"Activation":1}],"Adam":{"LR":0.001,"Beta1":1,"Beta2":0.999,"Eps":1e-8}}`, nil)},
		{"Adam LR -0.001", v2File(`{"InputDim":4,"Layers":[{"Size":1,"Activation":1}],"Adam":{"LR":-0.001,"Beta1":0.9,"Beta2":0.999,"Eps":1e-8}}`, nil)},
		{"Adam Eps 0", v2File(`{"InputDim":4,"Layers":[{"Size":1,"Activation":1}],"Adam":{"LR":0.001,"Beta1":0.9,"Beta2":0.999,"Eps":0}}`, nil)},
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
			data := v2File(`{"InputDim":4,"Layers":[{"Size":8,"Activation":1,"Sampled":true,`+tc.field+`,"K":2,"L":2,"Beta":2}]}`, nil)
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
				fmt.Sprintf("%v %s", hash, tc.shape), tc.want, v2File(cfg, [][3]uint32{{8, 8, uint32(ActSoftmax)}}),
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

// TestLoadRejectsBadInput: garbage is not a model, and weights whose layer
// shapes disagree with the file's config — a 64-class model's weights
// behind a 128-class config — are refused.
func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage accepted")
	}
	save := func(classes int) (file []byte, weightsAt int) {
		var buf bytes.Buffer
		if err := mustNet(t, tinyConfig(classes)).SaveModel(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), 12 + int(binary.LittleEndian.Uint32(buf.Bytes()[8:]))
	}
	small, smallAt := save(64)
	big, bigAt := save(128)
	// Pad to the big model's size, so only the shape check can refuse it.
	spliced := append(append([]byte(nil), big[:bigAt]...), small[smallAt:]...)
	spliced = append(spliced, make([]byte, len(big)-len(spliced))...)
	_, err := LoadModel(bytes.NewReader(spliced))
	if err == nil || !strings.Contains(err.Error(), "layer 1: shape") {
		t.Fatalf("shape mismatch: got %v, want a layer 1 shape error", err)
	}
}

// TestLoadModelRefusesDamagedFile: a truncated or corrupt model file is an
// error and no network. A file cut short is io.ErrUnexpectedEOF naming
// the layer it ends in — also from a reader that cannot report its length
// in advance, and from inside a block of the input-major layer's
// transposition — and a file whose config declares more weight bytes than
// it holds is refused before any layer is sized, with both sizes.
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
	// Layer 0 is input-major; its weights start after the config and its
	// shape header, and the last layer's shape header follows its biases.
	l0 := n.layers[0]
	layer0 := 12 + int(binary.LittleEndian.Uint32(file[8:])) + 12
	lastMeta := layer0 + 4*(l0.out*l0.in+l0.out)
	corrupt := append([]byte(nil), file...)
	binary.LittleEndian.PutUint32(corrupt[lastMeta:], 7)
	// A hollow 98-byte file: a million inputs and no weights behind them.
	hollow := v2File(`{"InputDim":1000000,"Layers":[{"Size":128,"Activation":0},{"Size":64,"Activation":1}]}`, nil)
	if len(hollow) != 98 {
		t.Fatalf("hollow file is %d bytes", len(hollow))
	}
	for _, c := range []struct {
		name string
		data []byte
		want string // in the error
	}{
		{"truncated by 100 bytes", file[:len(file)-100], "declares"},
		{"truncated in layer 0", file[:lastMeta-4], "declares"},
		{"corrupt last layer shape", corrupt, "layer 1: shape 7x"},
		{"98-byte header", hollow, "declares 512033560 bytes of weights, the file holds 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := LoadModel(bytes.NewReader(c.data))
			if err == nil || m != nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("LoadModel = %v, %v; want no network and an error containing %q", m, err, c.want)
			}
		})
	}
	// A plain io.Reader hides its length, so the short read itself must
	// report the end: inside a transposition block of layer 0, inside a
	// neuron row of layer 1, and in layer 1's biases.
	for name, c := range map[string]struct {
		cut   int
		layer string
	}{
		"inside layer 0 block 1":  {layer0 + 4*(codecBlock*l0.in+5), "layer 0"},
		"inside a layer 1 row":    {lastMeta + 12 + 4*(3*l0.out+7), "layer 1"},
		"inside layer 1's biases": {len(file) - 2, "layer 1"},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := LoadModel(io.MultiReader(bytes.NewReader(file[:c.cut])))
			if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), c.layer) {
				t.Fatalf("LoadModel of a file cut at byte %d: %v, want io.ErrUnexpectedEOF in %s", c.cut, err, c.layer)
			}
		})
	}
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
// files of every layer orientation plus truncated and hostile ones: it must
// return an error or a network, never panic, and a network it returns must
// re-save to bytes that load back to the same network. Each input is also
// loaded through a reader that hides its length, which skips the up-front
// size check, so a short file must fail in the decode instead.
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
		f.Add(buf.Bytes()[:buf.Len()-100])
	}
	// An input-major layer 40 wide is two full transposition blocks and a
	// half one: cut the file inside the second and inside the third.
	n, err := NewNetwork(Config{InputDim: 37, Seed: 4, Layers: []LayerConfig{{Size: 40, Activation: ActReLU}, sampled(24, ActSoftmax, lsh.KindDWTA)}})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.SaveModel(&buf); err != nil {
		f.Fatal(err)
	}
	layer0 := 12 + int(binary.LittleEndian.Uint32(buf.Bytes()[8:])) + 12
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:layer0+4*(codecBlock*37+100)])
	f.Add(buf.Bytes()[:layer0+4*(2*codecBlock*37+50)])
	f.Add(v2File(`{"InputDim":1048576,"Layers":[{"Size":1048576,"Activation":1}]}`, nil))
	f.Add(v2File(`{"InputDim":30,"Layers":[{"Size":20,"Activation":1,"Sampled":true,"Hash":2,"K":2,"L":3,"RangePow":3,"Beta":6,"BinSize":-1}]}`, [][3]uint32{{30, 20, 1}}))
	// Kinds that cannot run: the removed hash families 1 and 3, the
	// removed strategies 1 and 2 and policy 1, and an unknown strategy and
	// policy, each with whole weights.
	for _, field := range []string{`"Hash":1`, `"Hash":3`, `"Strategy":1`, `"Strategy":2`, `"Strategy":9`, `"Policy":1`, `"Policy":9`} {
		f.Add(v2File(`{"InputDim":30,"Layers":[{"Size":20,"Activation":1,"Sampled":true,`+field+`,"K":2,"L":3,"RangePow":3,"Beta":6}]}`, [][3]uint32{{30, 20, 1}}))
	}
	// Hash functions or table offsets a small file cannot be allowed to
	// size.
	for _, tc := range hostileTableFiles() {
		f.Add(tc.data)
	}
	f.Add(append([]byte(modelMagic), 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !fuzzAffordable(data) {
			t.Skip("declares more than the harness builds")
		}
		n, err := LoadModel(bytes.NewReader(data))
		if _, errStream := LoadModel(io.MultiReader(bytes.NewReader(data))); (err == nil) != (errStream == nil) {
			t.Fatalf("LoadModel from a sized reader: %v; from a stream: %v", err, errStream)
		}
		if err != nil {
			return
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
// first layer 100 neurons wide, which is not a multiple of the codec's
// 16-neuron block, over fan-in 37, and (b) a sampled neuron-major first
// layer. Both end in a sampled layer, so the table equality has tables to
// compare.
var goldenModelCases = []struct {
	name string
	cfg  Config
	want uint64
}{
	{"input-major 37x100", Config{InputDim: 37, Seed: 11, Layers: []LayerConfig{
		{Size: 100, Activation: ActReLU},
		{Size: 60, Activation: ActSoftmax, Sampled: true, Hash: lsh.KindSimhash, K: 3, L: 4, RangePow: 5, BucketSize: 8, Strategy: sampling.KindVanilla, Beta: 6},
	}}, 0xc4b4bd14c17de023},
	{"sampled neuron-major 37x100", Config{InputDim: 37, Seed: 12, Layers: []LayerConfig{
		{Size: 100, Activation: ActReLU, Sampled: true, Hash: lsh.KindDWTA, K: 2, L: 5, RangePow: 4, BucketSize: 8, Strategy: sampling.KindVanilla, Beta: 6},
		{Size: 30, Activation: ActSoftmax},
	}}, 0xd7f83c0dffa48e01},
}

// TestSaveModelGolden pins the model file's bytes — FNV-64a of SaveModel
// for the goldenModelCases networks, recorded before the codec that
// streams weights through block buffers replaced per-neuron
// binary.Write, and re-recorded when the weight init moved to row-keyed
// streams (TestSaveModelFormulaGolden pins the codec apart from the
// init) — and checks that a file re-saves to itself and that
// loading it rebuilds the source's tables at generation 1. Recorded on
// amd64 (see TestTrainingGoldenHash).
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
// row from its own stream. A change to the init may not move these; a
// change to the codec must.
func TestSaveModelFormulaGolden(t *testing.T) {
	want := []uint64{0xb3495786d4ff5975, 0x3346a1256af4ef4c}
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
