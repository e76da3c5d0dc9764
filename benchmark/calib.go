package main

import (
	"sync"
	"time"
)

// Calibrated time.
//
// The reference box shares its cores with other VMs. Besides second-long
// bursts it has a state lasting minutes in which two busy threads get about
// one core between them: train_xwide's median batch read 190 ms and 380 ms in
// back-to-back runs of the same binary and seed. No statistic within a 16 s
// run sees through that, and a spread of 0.9 between ten runs makes every
// time-based metric useless as a regression gate.
//
// So the benchmark carries its own clock: a fixed piece of work that shares
// no code with the program under test (random 512-byte row reads with a
// multiply-add, in cache, on as many goroutines as the measured work keeps
// busy), timed next to each measurement. The ratio of its time on the quiet
// reference box to its time now is the machine's speed, and every time-based
// end-to-end metric is reported in calibrated time: measured time x speed
// (rates divided by it). On a quiet reference box speed is 1 and calibrated
// time is wall time. In the experiment above the ratio of batch time to
// kernel time held within 4% (21.9-22.8) across both states. A change to the
// repository cannot move the kernel, so it cannot hide in the calibration.
// The traced run reports the speed it saw as machine.speed and its per-layer
// timings uncalibrated.
//
// What the kernel does not see is interference that slows memory and leaves
// arithmetic alone; the box has that too (train_converge at 42 ms a batch
// against 29 ms, kernel unmoved), and there the metrics move with it.

// refKernelMS is the kernel's time on the quiet reference box
// (2 x Xeon @ 2.10 GHz vCPUs); it fixes the unit, nothing else.
const refKernelMS = 9.0

const (
	kernelRows   = 100000 // row reads
	kernelRowLen = 128    // floats per row: one weight row of the models here
)

// kernelBuf is 64 KB, so it stays in a core's own cache and the kernel's
// time does not depend on what ran before it. (A 16 MB buffer read 18 ms
// after a training interval and 13 ms on an idle process.)
var (
	kernelBuf  [16 << 10]float32
	kernelSink [2]float32
)

// kernelMS runs the calibration kernel once on each of threads goroutines
// at the same time and returns the milliseconds until the last is done.
// More than one is only meaningful where the process's threads are already
// spread over the cores, as between a trainer's batches: in an idle process
// the scheduler starts both on one core and the pair reads twice the time.
func kernelMS(threads int) float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := range threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx := uint32(w*7919 + 1)
			var s float32
			for range kernelRows {
				idx = idx*1664525 + 1013904223 // Numerical Recipes LCG
				base := int(idx>>4) % (len(kernelBuf) - kernelRowLen)
				for _, v := range kernelBuf[base : base+kernelRowLen] {
					s += v * 1.0001
				}
			}
			kernelSink[w] = s
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds() * 1e3
}

// speedometer collects kernel timings taken beside a measurement, on as
// many threads as the measured work keeps busy.
type speedometer struct {
	threads int
	ms      []float64
}

func (s *speedometer) sample() { s.ms = append(s.ms, kernelMS(s.threads)) }

// speed is the machine's speed over the samples, relative to the quiet
// reference box: 0.5 when everything takes twice as long.
func (s *speedometer) speed() float64 { return refKernelMS / median(s.ms) }
