package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
)

// postBody POSTs body to url and returns the status, headers and raw
// response body.
func postBody(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// TestDecodePredictMatchesEncodingJSON checks the /predict handler's
// decoding against encoding/json over the declared wire struct: a body
// encoding/json refuses is a 400 from the decode step, and every body it
// accepts reaches the predictor with the same k, mode and seed. Every
// accepted body here carries a valid feature vector, so no later
// validation step can mask a decode difference.
func TestDecodePredictMatchesEncodingJSON(t *testing.T) {
	opts := Options{BatchWindow: 0, CacheSize: 64}
	ts := startServer(t, opts)
	opts = opts.withDefaults()
	bodies := []string{
		`{"indices":[1,2,3],"values":[0.5,1,2],"k":7}`,
		`  { "indices" : [4] , "values" : [1] , "k" : 3 , "sampled" : true } `,
		`{"indices":[5],"values":[1],"k":null,"sampled":null,"seed":null,"deadline_ms":null}`,
		`{"indices":[1],"values":[1],"unknown":{"a":[1,{"b":null}]},"k":2}`,
		`{"indices":[1],"values":[1],"k":1,"k":9}`,
		`{"indices":[1,2,3,4],"values":[1e-7,2.5e8,-0.0,1.25E+2]}`,
		`{"indices":[1],"values":[1],"sampled":true,"seed":18446744073709551615}`,
		`{"indices":[1],"values":[1],"seed":12345,"sampled":true}`,
		`{"indices":[1],"values":[1],"deadline_ms":5000.5}`,
		`{"Indices":[1],"VALUES":[1],"K":4,"Sampled":true}`,
		`{"indices":[0,63],"values":[1,-1],"k":-3}`,
		`{"indices":[1],"values":[1],"k":500}`,
		`{"indices":[1],"values":[1],"k":3}trailing garbage`,
		`{"indices":[1],"values":[1],"sampled":false,"seed":7}`,
		`{"indices":[1],"values":[1],"k":2.5}`,
		`{"indices":[1],"values":[1],"k":"3"}`,
		`{"indices":[1.5],"values":[1]}`,
		`{"indices":[1],"values":["x"]}`,
		`{"indices":[2147483648],"values":[1]}`,
		`{"indices":[1],"values":[3.5e38]}`,
		`{"indices":[1],"values":[1],"seed":-1}`,
		`{"indices":}`,
		`{"indices":[1],}`,
		`[1,2]`,
		`null`,
	}
	for _, body := range bodies {
		var ref predictRequest
		refErr := json.NewDecoder(strings.NewReader(body)).Decode(&ref)

		code, hdr, raw := postBody(t, ts.URL+"/predict", body)
		if refErr != nil {
			if code != http.StatusBadRequest || !bytes.Contains(raw, []byte("decoding request")) {
				t.Errorf("%s: status %d (%s), want a 400 decode error like encoding/json's %v", body, code, raw, refErr)
			}
			continue
		}
		if ref.Indices == nil {
			// encoding/json accepts a JSON null as an empty request; the
			// handler must then refuse the empty vector, not the body.
			if code != http.StatusBadRequest || !bytes.Contains(raw, []byte("empty feature vector")) {
				t.Errorf("%s: status %d (%s), want a 400 empty-vector error", body, code, raw)
			}
			continue
		}
		if code != http.StatusOK {
			t.Errorf("%s: status %d (%s), encoding/json accepts it", body, code, raw)
			continue
		}
		var pr predictResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Errorf("%s: %v", body, err)
			continue
		}
		wantMode := "exact"
		if ref.Sampled {
			wantMode = "sampled"
		}
		if k := opts.topK(ref.K); len(pr.IDs) != k || pr.Mode != wantMode {
			t.Errorf("%s: %d ids in mode %q, want %d in %q", body, len(pr.IDs), pr.Mode, k, wantMode)
		}
		// Only an unseeded sampled request bypasses the cache, so the
		// header shows whether the seed decoded.
		if cached, want := hdr.Get("X-Cache") != "", !ref.Sampled || ref.Seed != nil; cached != want {
			t.Errorf("%s: X-Cache %q, want cacheable=%v", body, hdr.Get("X-Cache"), want)
		}
	}
}

// TestDecodePredictRoundTrip marshals random wire structs with
// encoding/json and sends them through the handler: each is answered
// with the k and mode it asked for, and deterministic requests (exact,
// or sampled with a seed) answer the same ids when repeated.
func TestDecodePredictRoundTrip(t *testing.T) {
	opts := Options{BatchWindow: 0}
	ts := startServer(t, opts)
	opts = opts.withDefaults()
	r := rng.New(31)
	for trial := 0; trial < 100; trial++ {
		req := predictRequest{K: r.Intn(20) - 5, Sampled: r.Bernoulli(0.5)}
		if r.Bernoulli(0.5) {
			req.DeadlineMs = float64(5000 + r.Intn(1000))
		}
		if r.Bernoulli(0.5) {
			seed := uint64(r.Intn(1 << 30))
			req.Seed = &seed
		}
		n := 1 + r.Intn(16)
		for i := 0; i < n; i++ {
			req.Indices = append(req.Indices, int32(r.Intn(64)))
			req.Values = append(req.Values, r.NormFloat32())
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		code, first := postPredict(t, ts.URL, string(body))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", body, code)
		}
		wantMode := "exact"
		if req.Sampled {
			wantMode = "sampled"
		}
		if k := opts.topK(req.K); len(first.IDs) != k || len(first.Scores) != k || first.Mode != wantMode {
			t.Fatalf("%s: %d ids, %d scores, mode %q; want %d in %q", body, len(first.IDs), len(first.Scores), first.Mode, k, wantMode)
		}
		if req.Sampled && req.Seed == nil {
			continue
		}
		code, again := postPredict(t, ts.URL, string(body))
		if code != http.StatusOK || !slices.Equal(again.IDs, first.IDs) {
			t.Fatalf("%s: repeat answered %d %v, first %v", body, code, again.IDs, first.IDs)
		}
	}
}

// TestDecodeBatchMatchesEncodingJSON checks the /predict/batch handler's
// decoding against encoding/json the same way: refused bodies are 400s
// from the decode step, accepted ones answer one result per element
// with the decoded k and mode.
func TestDecodeBatchMatchesEncodingJSON(t *testing.T) {
	opts := Options{BatchWindow: 0}
	ts := startServer(t, opts)
	opts = opts.withDefaults()
	bodies := []string{
		`{"batch":[{"indices":[1,2],"values":[1,2]},{"indices":[3],"values":[0.5]}],"k":4}`,
		`{"batch":[{"indices":[1],"values":[1],"extra":[[]]}],"deadline_ms":5000}`,
		`{"batch":[{"indices":[1],"values":[1]}],"sampled":true,"seed":9}`,
		`{"Batch":[{"Indices":[1],"VALUES":[1]}],"K":3}`,
		`{"batch":[{"indices":[1],"values":[1]}],"k":null,"sampled":null,"seed":null}`,
		`{"batch":[{"indices":[1],"values":[1]},{"indices":[2],"values":[1]}],"k":2,"k":6}`,
		`{"batch":[{"indices":[1],"values":[1]}]}trailing`,
		`{"batch":[{"indices":[1],"values":[1]}]`,
		`{"batch":{"indices":[1]}}`,
		`{"batch":[{"indices":[1],"values":[1]}],"k":1.5}`,
		`{"batch":[{"indices":[1],"values":[1]}],"seed":"9"}`,
		`{"batch":[{"indices":[1],"values":[true]}]}`,
		`{"batch":[[1]]}`,
	}
	for _, body := range bodies {
		var ref batchPredictRequest
		refErr := json.NewDecoder(strings.NewReader(body)).Decode(&ref)

		code, _, raw := postBody(t, ts.URL+"/predict/batch", body)
		if refErr != nil {
			if code != http.StatusBadRequest || !bytes.Contains(raw, []byte("decoding request")) {
				t.Errorf("%s: status %d (%s), want a 400 decode error like encoding/json's %v", body, code, raw, refErr)
			}
			continue
		}
		if code != http.StatusOK {
			t.Errorf("%s: status %d (%s), encoding/json accepts it", body, code, raw)
			continue
		}
		var br batchPredictResponse
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Errorf("%s: %v", body, err)
			continue
		}
		wantMode := "exact"
		if ref.Sampled {
			wantMode = "sampled"
		}
		if br.Count != len(ref.Batch) || len(br.Results) != len(ref.Batch) || br.Mode != wantMode {
			t.Errorf("%s: %d results (count %d) in mode %q, want %d in %q", body, len(br.Results), br.Count, br.Mode, len(ref.Batch), wantMode)
			continue
		}
		for i, res := range br.Results {
			if k := opts.topK(ref.K); len(res.IDs) != k {
				t.Errorf("%s: element %d has %d ids, want %d", body, i, len(res.IDs), k)
			}
		}
	}
}

// TestJSONContentType: every answer is labelled application/json —
// computed and cache-replayed predictions, bulk results, errors, and the
// health and stats endpoints.
func TestJSONContentType(t *testing.T) {
	ts := startServer(t, Options{BatchWindow: 0, CacheSize: 16})
	const one = `{"indices":[1,7],"values":[1,0.5],"k":3}`
	for _, tc := range []struct {
		name, path, body string
		code             int
	}{
		{"predict miss", "/predict", one, http.StatusOK},
		{"predict hit", "/predict", one, http.StatusOK},
		{"predict error", "/predict", `{"indices":[]}`, http.StatusBadRequest},
		{"batch", "/predict/batch", `{"batch":[{"indices":[1],"values":[1]}]}`, http.StatusOK},
		{"batch error", "/predict/batch", `{"batch":[]}`, http.StatusBadRequest},
	} {
		code, hdr, raw := postBody(t, ts.URL+tc.path, tc.body)
		if code != tc.code {
			t.Errorf("%s: status %d (%s), want %d", tc.name, code, raw, tc.code)
		}
		if got := hdr.Get("Content-Type"); got != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.name, got)
		}
	}
	for _, path := range []string{"/healthz", "/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || got != "application/json" {
			t.Errorf("%s: status %d, Content-Type %q", path, resp.StatusCode, got)
		}
	}
}

// TestNonFiniteBatchScoreIsServerError is TestNonFiniteScoreIsServerError
// for /predict/batch: a poisoned model's bulk answer is a 500, not a 200
// with invented numbers.
func TestNonFiniteBatchScoreIsServerError(t *testing.T) {
	net := testModel(t)
	net.Layer(net.NumLayers() - 1).Weights(0)[0] = float32(math.NaN())
	s, err := New(net, Options{BatchWindow: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	code, _, raw := postBody(t, ts.URL+"/predict/batch",
		`{"batch":[{"indices":[1,7,33],"values":[1.0,0.5,2.0]},{"indices":[2],"values":[1]}],"k":5}`)
	if code != http.StatusInternalServerError || !bytes.Contains(raw, []byte("encoding response")) {
		t.Fatalf("status %d (%s), want a 500 encoding error", code, raw)
	}
}
