package metrics_test

import (
	"testing"

	"repro/metrics"
)

// TestPrecision covers the two ways a prediction arrives — a full score
// vector indexed by class (nil ids) and a sampled candidate list with its
// class ids — plus the clamping and empty cases.
func TestPrecision(t *testing.T) {
	for _, tc := range []struct {
		name        string
		scores      []float32
		ids, labels []int32
		k           int
		p1, pk      float64
	}{
		{"full scores", []float32{0.1, 0.7, 0.2, 0.05}, nil, []int32{1, 3}, 2, 1, 0.5},
		{"sampled ids", []float32{0.3, 0.9, 0.6}, []int32{40, 7, 12}, []int32{12, 40}, 2, 0, 0.5},
		{"k above candidates", []float32{0.5, 0.4}, []int32{3, 4}, []int32{3, 4}, 5, 1, 1},
		{"no labels", []float32{0.5, 0.4}, nil, nil, 1, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := metrics.PrecisionAt1(tc.scores, tc.ids, tc.labels); got != tc.p1 {
				t.Errorf("P@1 = %v, want %v", got, tc.p1)
			}
			if got := metrics.PrecisionAtK(tc.scores, tc.ids, tc.labels, tc.k); got != tc.pk {
				t.Errorf("P@%d = %v, want %v", tc.k, got, tc.pk)
			}
		})
	}
}
