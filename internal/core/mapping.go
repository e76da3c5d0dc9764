package core

import (
	"runtime"
	"sync/atomic"
)

// mapping owns a model file LoadModel mapped into memory. Every layer
// whose weights and biases view it points to it, so it stays mapped while
// any of them is reachable, and once none is, a cleanup unmaps it: a
// network replaced by a reload is unmapped after its last in-flight
// request, with no Close. The views themselves do not keep it reachable —
// the garbage collector does not trace memory outside its heap — so an
// entry point that reads the weights keeps its network (or Predictor)
// alive until it returns (runtime.KeepAlive), and a slice Layer.Weights
// returned is valid only while its network is reachable.
type mapping struct {
	data []byte
}

// liveMappings counts the mappings not yet unmapped.
var liveMappings atomic.Int64

// newMapping takes ownership of data, which unmap releases.
func newMapping(data []byte, unmap func([]byte) error) *mapping {
	m := &mapping{data: data}
	liveMappings.Add(1)
	runtime.AddCleanup(m, func(data []byte) {
		_ = unmap(data) // fails only for a region that is not a whole mapping
		liveMappings.Add(-1)
	}, data)
	return m
}

// MappedModels reports how many model files LoadModel has mapped and not
// yet unmapped. A mapping is released by the first garbage collection
// that finds no network loaded from it reachable, once its cleanup has
// run.
func MappedModels() int64 { return liveMappings.Load() }
