package dataset_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/dataset"
)

// TestProfilesGenerate: each Table 1 profile, scaled down, generates a
// valid split whose statistics match the profile it came from, and the
// same seed regenerates it exactly.
func TestProfilesGenerate(t *testing.T) {
	for _, p := range []dataset.Profile{
		dataset.Delicious200K(0.002, 3),
		dataset.Amazon670K(0.002, 3),
	} {
		t.Run(p.Name, func(t *testing.T) {
			ds, err := dataset.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.Validate(); err != nil {
				t.Fatal(err)
			}
			st := ds.Stats()
			if st.Name != p.Name || st.FeatureDim != p.FeatureDim || st.LabelDim != p.NumClasses ||
				st.TrainSize != p.TrainSize || st.TestSize != p.TestSize {
				t.Fatalf("stats %+v do not match profile %+v", st, p)
			}
			if st.AvgFeatures <= 0 || st.AvgLabels <= 0 {
				t.Fatalf("empty examples: %+v", st)
			}
			again, err := dataset.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, ds) {
				t.Fatal("same profile and seed generated a different dataset")
			}
		})
	}
}

// TestXCRoundTrip: examples written in the Extreme Classification
// Repository format read back identically, from a stream and from a file.
func TestXCRoundTrip(t *testing.T) {
	ds, err := dataset.Generate(dataset.Delicious200K(0.001, 5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteXC(&buf, ds.Train, ds.InputDim, ds.NumClasses); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "train.txt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	exs, nf, nl, err := dataset.ReadXC(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nf != ds.InputDim || nl != ds.NumClasses {
		t.Fatalf("header %d features %d labels, want %d %d", nf, nl, ds.InputDim, ds.NumClasses)
	}
	if !reflect.DeepEqual(exs, ds.Train) {
		t.Fatal("examples changed across WriteXC/ReadXC")
	}
	loaded, err := dataset.LoadXCFile("delicious", path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "delicious" || loaded.InputDim != ds.InputDim || loaded.NumClasses != ds.NumClasses ||
		len(loaded.Test) != 0 || !reflect.DeepEqual(loaded.Train, ds.Train) {
		t.Fatalf("LoadXCFile: %s %dx%d, %d train / %d test", loaded.Name, loaded.InputDim, loaded.NumClasses, len(loaded.Train), len(loaded.Test))
	}
}
