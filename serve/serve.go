// Package serve is the public surface of the slide-serve HTTP front
// end: model serving with micro-batching, atomic engine hot-swap
// (POST /reload, SIGHUP), per-request deadlines, admission control
// against a latency budget, and a generation-keyed response cache.
//
// It re-exports repro/internal/serve so binaries and external consumers
// never import internal packages directly. cmd/slide-serve wraps it in a
// configured http.Server; tests embed the Handler directly via
// net/http/httptest.
package serve

import (
	slide "repro"
	"repro/internal/serve"
)

// Options configures the serving front end (batching, admission budget,
// response cache, model path).
type Options = serve.Options

// Server owns the swappable serving engine and the micro-batching queue
// in front of it.
type Server = serve.Server

// New builds a Server over an already-loaded network. Close stops its
// micro-batcher; Handler returns its HTTP routing.
func New(net *slide.Network, opts Options) (*Server, error) {
	return serve.New(net, opts)
}
