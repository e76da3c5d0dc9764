package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/sparse"
)

// FuzzPredictBodies drives arbitrary bodies at /predict (batch=false)
// and /predict/batch (batch=true) through Handler() with the
// micro-batcher on. Whatever the body, the handler must not panic and
// must answer 200, 400, 413, or — only for a body carrying a deadline —
// 504. A 200 must decode, answer every element with at most k ids, all
// in [0, classes), scores non-increasing, and an exact answer must be
// Predictor.Predict's on the same input.
func FuzzPredictBodies(f *testing.F) {
	for _, b := range predictBodies {
		f.Add(false, []byte(b))
	}
	for _, b := range batchBodies {
		f.Add(true, []byte(b))
	}
	s, err := New(testModel(f), Options{BatchWindow: time.Millisecond, CacheSize: 64, MaxBodyBytes: 1 << 12})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	eng := s.eng.Load()
	dim, classes := eng.net.Config().InputDim, int32(eng.net.OutputDim())

	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/predict"
		if batch {
			path = "/predict/batch"
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))

		// The handler decodes with encoding/json; the same decode says
		// what the request asked for.
		var elems []predictRequest
		var k int
		var sampled, deadline bool
		if batch {
			var req batchPredictRequest
			if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
				for _, el := range req.Batch {
					elems = append(elems, predictRequest{Indices: el.Indices, Values: el.Values})
				}
				k, sampled, deadline = s.opts.topK(req.K), req.Sampled, req.DeadlineMs > 0
			}
		} else {
			var req predictRequest
			if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
				elems = []predictRequest{req}
				k, sampled, deadline = s.opts.topK(req.K), req.Sampled, req.DeadlineMs > 0
			}
		}

		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		case http.StatusGatewayTimeout:
			if !deadline {
				t.Fatalf("504 without a deadline: %s", w.Body)
			}
			return
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}

		var answers []predictResult
		if batch {
			var br batchPredictResponse
			if err := json.Unmarshal(w.Body.Bytes(), &br); err != nil {
				t.Fatalf("200 body does not decode: %v", err)
			}
			answers = br.Results
		} else {
			var pr predictResponse
			if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
				t.Fatalf("200 body does not decode: %v", err)
			}
			answers = []predictResult{{IDs: pr.IDs, Scores: pr.Scores}}
		}
		if len(answers) != len(elems) {
			t.Fatalf("200 with %d answers for %d inputs", len(answers), len(elems))
		}
		for i, a := range answers {
			if len(a.IDs) > k || len(a.Scores) != len(a.IDs) {
				t.Fatalf("answer %d: %d ids and %d scores for k=%d", i, len(a.IDs), len(a.Scores), k)
			}
			for j, id := range a.IDs {
				if id < 0 || id >= classes {
					t.Fatalf("answer %d: id %d outside [0,%d)", i, id, classes)
				}
				if j > 0 && a.Scores[j] > a.Scores[j-1] {
					t.Fatalf("answer %d: scores %v increase", i, a.Scores)
				}
			}
			if sampled {
				continue
			}
			x, err := sparse.View(dim, elems[i].Indices, elems[i].Values)
			if err != nil {
				t.Fatalf("answer %d: 200 for an input sparse.View refuses: %v", i, err)
			}
			ids, scores, err := eng.pred.Predict(x, k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ids, a.IDs) || !slices.Equal(scores, a.Scores) {
				t.Fatalf("answer %d: served %v/%v, Predict %v/%v", i, a.IDs, a.Scores, ids, scores)
			}
		}
	})
}
