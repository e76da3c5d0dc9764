package kernels

import (
	"sync"
	"time"
)

// Startup auto-tuning of the gather/scatter density crossover.
//
// The crossover moves with cache sizes and memory bandwidth, so it is
// measured rather than fixed. The calibration below times both forms on a
// fixed synthetic layer shape at a grid of input densities and places the
// crossover between the last density where scatter won and the first
// where gather won. It runs once per process (sync.Once) and costs a few
// milliseconds; a network resolves it once at construction.

const (
	calibIn  = 1024 // calibration fan-in
	calibOut = 128  // calibration fan-out
	// calibMin/calibMax clamp the measured crossover: timing noise on a
	// loaded machine must not push the plan into regimes where one form
	// is asymptotically wrong.
	calibMin = 0.05
	calibMax = 0.5
)

var (
	calibOnce  sync.Once
	calibValue float64
)

// CalibratedCrossover measures (once per process) the input density at
// which the gather form overtakes the scatter form on this machine and
// returns it clamped to [0.05, 0.5]. Subsequent calls return the cached
// value.
func CalibratedCrossover() float64 {
	calibOnce.Do(func() { calibValue = measureCrossover() })
	return calibValue
}

func measureCrossover() float64 {
	// Fixed-seed LCG data: calibration perturbs only timing, never the
	// numerics of any run.
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() float32 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float32(rng>>40)/float32(1<<24) - 0.5
	}

	w := make([][]float32, calibOut)
	for j := range w {
		w[j] = make([]float32, calibIn)
		for i := range w[j] {
			w[j][i] = next()
		}
	}
	b := make([]float32, calibOut)
	for j := range b {
		b[j] = next()
	}
	m := NewMirror(calibIn, calibOut)
	m.Rebuild(w)

	ids := make([]int32, calibIn)
	vals := make([]float32, calibIn)
	dst := make([]float32, calibOut)

	densities := []float64{1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2}
	lastScatter, firstGather := -1, -1
	for di, d := range densities {
		nnz := int(d * calibIn)
		if nnz < 1 {
			nnz = 1
		}
		stride := calibIn / nnz
		for t := 0; t < nnz; t++ {
			ids[t] = int32(t * stride)
			vals[t] = next()
		}
		reps := 1 + (1<<14)/nnz // equalize work per density point

		gather := time.Duration(1 << 62)
		scatter := time.Duration(1 << 62)
		for trial := 0; trial < 3; trial++ {
			t0 := time.Now()
			for r := 0; r < reps; r++ {
				GatherForward(dst, nil, w, b, ids[:nnz], vals[:nnz], false, true)
			}
			if e := time.Since(t0); e < gather {
				gather = e
			}
			t0 = time.Now()
			for r := 0; r < reps; r++ {
				ScatterForward(dst, m, b, ids[:nnz], vals[:nnz], true)
			}
			if e := time.Since(t0); e < scatter {
				scatter = e
			}
		}
		if scatter < gather {
			lastScatter = di
		} else if firstGather < 0 {
			firstGather = di
		}
	}

	var crossover float64
	switch {
	case lastScatter < 0:
		// Scatter never won: push the crossover to the floor.
		crossover = calibMin
	case lastScatter == len(densities)-1:
		// Scatter won at the densest point measured: take the ceiling.
		crossover = calibMax
	case firstGather > lastScatter:
		crossover = (densities[lastScatter] + densities[firstGather]) / 2
	default:
		// Non-monotone from timing noise: split between the last scatter
		// win and the next denser point.
		crossover = (densities[lastScatter] + densities[lastScatter+1]) / 2
	}
	if crossover < calibMin {
		crossover = calibMin
	}
	if crossover > calibMax {
		crossover = calibMax
	}
	return crossover
}
