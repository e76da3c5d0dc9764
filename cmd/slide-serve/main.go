// Command slide-serve serves top-k predictions from a trained SLIDE model
// over HTTP — the paper's pitch (large-network inference cheap enough for
// commodity CPUs) turned into a serving front end.
//
// It loads a self-describing model written by slide-train -save, builds
// one shared concurrency-safe Predictor, and micro-batches concurrent
// requests into Predictor.PredictBatch calls so bursts ride the
// multi-core fan-out instead of queuing on single-example passes. For
// tail-latency engineering it adds a latency budget with admission
// control (shed with 429 + Retry-After instead of queuing work doomed to
// miss the budget), per-request deadlines (body deadline_ms or the
// X-Slide-Deadline-Ms header; expired work is cancelled with 504 instead
// of computed), and a response cache for deterministic requests keyed by
// engine generation (invalidated wholesale by /reload and SIGHUP).
//
// Usage:
//
//	slide-train -profile delicious -scale 0.01 -epochs 4 -save model.slide
//	slide-serve -model model.slide -addr :8080 -latency-budget 25ms -cache-size 4096
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/predict \
//	  -d '{"indices":[12,345,6789],"values":[1.0,0.5,2.0],"k":5,"sampled":true}'
//	curl -s localhost:8080/stats
//
// Endpoints:
//
//	POST /predict        {"indices":[...],"values":[...],"k":5,"sampled":true,
//	                      "seed":1,"deadline_ms":25}
//	                     -> {"ids":[...],"scores":[...],"mode":"sampled","ms":...}
//	POST /predict/batch  {"batch":[{"indices":[...],"values":[...]},...],"k":5,"sampled":true}
//	                     -> {"results":[{"ids":[...],"scores":[...]},...],"count":N,"ms":...}
//	                     bulk clients ride one PredictBatch fan-out directly,
//	                     skipping the micro-batch gathering window
//	POST /reload         {"model":"other.slide"} (empty body reloads -model)
//	                     atomically swaps in a freshly loaded Network+Predictor
//	                     pair and flushes the response cache; in-flight
//	                     requests finish on the old pair. SIGHUP does the same.
//	GET  /healthz        model shape, source path, generation, reload count
//	GET  /stats          request counts, micro-batch sizes, p50/p90/p99/p999,
//	                     shed / deadline-exceeded / cache counters
//
// Bodies are read and written with encoding/json and its rules: unknown
// fields are ignored, keys match case-insensitively, null leaves a field
// unset, and a fractional or out-of-range integer is a 400. A response
// encoding/json cannot render (a non-finite score) is a 500.
//
// The runtime's own environment variables bound memory, and take effect
// before the model loads: GOMEMLIMIT=512MiB slide-serve -model ... sets
// a soft heap limit, GOGC the GC target. Without GOGC the server sets a
// 25% target once the model is loaded, so request garbage grows the
// heap by a quarter of the model between collections, not by a whole
// model.
//
// The process shuts down gracefully: SIGINT/SIGTERM stops accepting new
// connections, drains in-flight requests (bounded by -drain), then stops
// the micro-batcher.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	slide "repro"
	"repro/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("slide-serve: ")
	var (
		modelPath   = flag.String("model", "", "self-describing model file written by slide-train -save (required)")
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		defaultK    = flag.Int("k", 5, "default top-k when a request omits k")
		maxK        = flag.Int("max-k", 100, "largest top-k a request may ask for")
		batchWindow = flag.Duration("batch-window", 2*time.Millisecond, "maximum micro-batch gathering window (0 disables batching)")
		batchMax    = flag.Int("batch-max", 64, "maximum requests per micro-batch")
		adaptive    = flag.Bool("adaptive-window", true, "derive each gather window from the observed arrival rate (one EWMA per inference mode), clamped to [0, -batch-window]")
		budget      = flag.Duration("latency-budget", 0, "admission-control latency budget: shed requests whose expected wait exceeds it with 429 + Retry-After (0 disables shedding)")
		cacheSize   = flag.Int("cache-size", 0, "response-cache capacity in entries for deterministic (exact and seeded-sampled) requests (0 disables the cache)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout for in-flight requests on SIGINT/SIGTERM")
		maxBody     = flag.Int64("max-body", 0, "request body cap in bytes for /predict; /predict/batch allows 16x, /reload a quarter (0 keeps the 4 MiB default)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the serving mux for live heap and allocation profiling")
	)
	flag.Parse()
	if *modelPath == "" {
		log.Fatal("-model is required (train one with: slide-train -save model.slide)")
	}

	f, err := os.Open(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	net, err := slide.LoadModel(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded model %s: input dim %d, %d layers, %d classes, %d parameters",
		*modelPath, net.Config().InputDim, net.NumLayers(), net.OutputDim(), net.NumParams())

	setGCTarget()

	srv, err := serve.New(net, serve.Options{
		DefaultK:       *defaultK,
		MaxK:           *maxK,
		BatchWindow:    *batchWindow,
		AdaptiveWindow: *adaptive,
		BatchMax:       *batchMax,
		ModelPath:      *modelPath,
		LatencyBudget:  *budget,
		CacheSize:      *cacheSize,
		MaxBodyBytes:   *maxBody,
		EnablePprof:    *pprofOn,
	})
	if err != nil {
		log.Fatal(err)
	}
	stopHUP := srv.WatchSIGHUP(log.Printf)
	defer stopHUP()

	// A configured http.Server instead of the bare ListenAndServe
	// default: header/body read timeouts bound slowloris-style clients,
	// the idle timeout reaps dead keep-alive connections, and Shutdown
	// gives in-flight requests a bounded drain on SIGINT/SIGTERM.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          log.Default(),
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	window := "adaptive per mode ≤ " + batchWindow.String()
	if !*adaptive {
		window = batchWindow.String()
	}
	extras := ""
	if *budget > 0 {
		extras += ", latency budget " + budget.String()
	}
	if *cacheSize > 0 {
		log.Printf("response cache: %d entries", *cacheSize)
	}
	if *pprofOn {
		log.Printf("pprof mounted at /debug/pprof/")
	}
	log.Printf("serving on %s (micro-batch window %s, max %d%s; SIGHUP reloads %s)",
		*addr, window, *batchMax, extras, *modelPath)

	select {
	case err := <-errCh:
		// The listener failed outright (bad -addr, port in use).
		srv.Close()
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	log.Printf("shutting down: draining in-flight requests (up to %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("listener: %v", err)
	}
	// The HTTP side is quiet now; stop the micro-batcher (it drains its
	// own queue before exiting).
	srv.Close()
	log.Printf("bye")
}

// setGCTarget runs once the model is loaded, when the live heap is
// almost all model: long-lived and pointer-free. At the runtime's
// default GOGC=100 the heap grows by a whole model's worth of request
// garbage before the next collection, so the resident set heads for
// twice the model. A 25% target caps that growth at a quarter of it, and
// marking pointer-free weights is cheap. A GOGC set in the environment
// still wins.
func setGCTarget() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(25)
	}
}
