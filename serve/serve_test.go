package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	slide "repro"
	"repro/serve"
)

// TestServePredictMatchesNetwork: an exact /predict answered by a Server
// built through the public constructor returns the network's own top-k.
func TestServePredictMatchesNetwork(t *testing.T) {
	net, err := slide.New(slide.Config{
		InputDim: 64,
		Seed:     11,
		Layers: []slide.LayerConfig{
			{Size: 32, Activation: slide.ActReLU},
			{
				Size: 256, Activation: slide.ActSoftmax,
				Sampled: true, Hash: slide.HashSimhash, K: 4, L: 8,
				Strategy: slide.StrategyVanilla, Beta: 48,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(net, serve.Options{BatchWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	x, err := slide.NewVector(64, []int32{1, 7, 33}, []float32{1, 0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := net.Predict(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/predict", "application/json",
		bytes.NewReader([]byte(`{"indices":[1,7,33],"values":[1,0.5,2],"k":4}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got struct {
		IDs  []int32 `json:"ids"`
		Mode string  `json:"mode"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Mode != "exact" || !reflect.DeepEqual(got.IDs, want) {
		t.Fatalf("served %s ids %v, network predicts %v", got.Mode, got.IDs, want)
	}
}
