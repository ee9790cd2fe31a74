// Package serve is the long-lived inference layer: it exposes a trained
// multi-view classifier behind a stdlib-only HTTP service (`mvpar serve`)
// so downstream consumers — editors, CI gates, build systems — classify
// loops without paying model-load and encoder-build costs per request.
//
// The request path is a bounded-admission pipeline over one model:
//
//	POST /v1/classify → generation pin
//	  → admission: wait for one of -jobs worker slots (429 past MaxQueue
//	    waiters, 504 if the deadline passes first)
//	  → one panic-captured classification attempt on the handler's own
//	    goroutine, the per-request context deadline reaching the
//	    interpreter's stride check
//	  → the model's answer (200), or an error naming the stage that
//	    failed: 422 a program the pipeline rejects, 504 a spent
//	    deadline, 500 a captured panic
//
// plus /healthz (liveness + generation identity), /readyz (warm, not
// draining), /metrics (the internal/obs registry in the Prometheus text
// exposition, extended with the mvpar_http_* / mvpar_model_* families),
// POST /v1/models/reload (atomic model hot swap: load → warm →
// parity-check → swap, requests already admitted finishing on the old
// generation, automatic rollback on failure) and /debug/traces
// (retained slow-request span trees, see internal/obs/trace). Results
// are bit-identical to a serial core.Classifier.ClassifyContext at every
// concurrency level — the same determinism contract the training pool
// upholds. Shutdown is graceful: http.Server.Shutdown waits for every
// running request, those still waiting for a slot included.
//
// The resilience model (swap/drain/rollback state machine, failure
// mapping, fault tests) is documented in docs/robustness.md.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mvpar/internal/core"
	"mvpar/internal/faults"
	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
)

// Inference is the model dependency of the server; *core.Classifier is
// the production implementation. Implementations must be safe for
// concurrent use. Implementations may additionally provide the
// Fingerprinter surface (core.Classifier does).
type Inference interface {
	ClassifyContext(ctx context.Context, name, src string) ([]core.LoopPrediction, error)
}

// Loader produces a fresh Inference for a hot reload — typically by
// re-reading a checkpoint file and taking a new classifier handle. It
// runs under the reload lock (never concurrently with itself).
type Loader func(ctx context.Context) (Inference, error)

// Config tunes the server. Zero values take the documented defaults.
type Config struct {
	// Addr is the listen address, default ":8080".
	Addr string
	// MaxQueue bounds how many requests may wait for a worker slot (one
	// slot per pool.DefaultParallelism() worker: NumCPU or the --jobs
	// override); requests beyond it are shed with 429. Default 64.
	MaxQueue int
	// RequestTimeout is the per-request classification deadline (flows
	// into the interpreter's stride check); default 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds the request body; default 1 MiB.
	MaxBodyBytes int64
	// DrainTimeout bounds graceful shutdown; default 15s.
	DrainTimeout time.Duration
	// DrainGrace is how long the server keeps answering (with /readyz
	// reporting 503 draining) after Shutdown begins, before the listener
	// closes — the readiness-propagation window load balancers need to
	// stop routing here. Default 0 (close immediately; set it in
	// production, e.g. 2s).
	DrainGrace time.Duration
	// Loader, when set, enables POST /v1/models/reload and SIGHUP-driven
	// hot swaps. Without it reload requests answer 501.
	Loader Loader
	// Version labels mvpar_build_info; default "dev".
	Version string
	// TraceSlow enables slow-request capture: every request is traced and
	// any request slower than this threshold has its span tree retained
	// in an in-memory ring of the traceRingSize newest, served at
	// /debug/traces (plus a structured log line and
	// mvpar_http_slow_requests_total). Zero disables capture; requests
	// are then traced only when they ask for a timings breakdown.
	TraceSlow time.Duration
}

// traceRingSize is how many slow-request traces /debug/traces retains
// (oldest evicted first).
const traceRingSize = 64

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.DrainGrace < 0 {
		c.DrainGrace = 0
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	return c
}

// ErrNoLoader reports a reload request against a server built without a
// Loader (501).
var ErrNoLoader = errors.New("serve: no model loader configured")

// Server is one inference service instance.
type Server struct {
	cfg    Config
	hs     *http.Server
	traces *trace.Ring // slow-request retention, nil when disabled

	bat *batcher // the admission layer

	// gen is the live generation; reloadMu serializes hot swaps.
	gen      atomic.Pointer[generation]
	reloadMu sync.Mutex

	ready    atomic.Bool
	draining atomic.Bool
}

// New builds a server around inf (cfg.Loader, when set, is its reload
// loader). The server is not ready until Warmup succeeds; use Handler
// for in-process tests or ListenAndServe for the full lifecycle.
func New(inf Inference, cfg Config) *Server {
	if inf == nil {
		panic("serve: New needs an Inference")
	}
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg}
	if cfg.TraceSlow > 0 {
		s.traces = trace.NewRing(traceRingSize)
	}
	s.bat = newBatcher(cfg.MaxQueue)
	// Register the depth gauge now so /metrics shows it from startup.
	obs.GetGauge(queueDepthGauge).Add(0)
	s.install(inf)
	mux := http.NewServeMux()
	mux.Handle("/v1/classify", instrument("classify", http.HandlerFunc(s.handleClassify)))
	mux.Handle("/v1/models/reload", instrument("reload", http.HandlerFunc(s.handleReload)))
	mux.Handle("/healthz", instrument("healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("/readyz", instrument("readyz", http.HandlerFunc(s.handleReadyz)))
	mux.Handle("/metrics", instrument("metrics", obs.Handler()))
	mux.Handle("/debug/traces", instrument("debug_traces", http.HandlerFunc(s.handleDebugTraces)))
	// Every other path: the mux's own 404, counted like any route so
	// probes of unknown paths show up in the 4xx class.
	mux.Handle("/", instrument("unmatched", http.NotFoundHandler()))
	s.hs = &http.Server{
		Addr:              cfg.Addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s
}

// Handler exposes the routed handler for httptest-style embedding.
func (s *Server) Handler() http.Handler { return s.hs.Handler }

// Generation returns the live generation id (1 for the initial model,
// +1 per successful hot swap).
func (s *Server) Generation() uint64 { return s.gen.Load().id }

// install makes inf the live generation. Requests that loaded the old
// one keep its pointer and finish against its Inference. New and Reload
// (under reloadMu) are its only callers, so installs never race and the
// next id follows the live one.
func (s *Server) install(inf Inference) *generation {
	id := uint64(1)
	if old := s.gen.Load(); old != nil {
		id = old.id + 1
	}
	gen := newGeneration(id, inf)
	s.gen.Store(gen)
	obs.GetGauge("mvpar_model_generation").Set(float64(id))
	obs.SetInfo("mvpar_build_info", map[string]string{
		"version":    s.cfg.Version,
		"go_version": runtime.Version(),
		"generation": strconv.FormatUint(id, 10),
		"model":      gen.fp,
	})
	return gen
}

// warmupSource is the program warm-up classifies: small enough to finish
// in milliseconds, but a real loop so the full profile→PEG→two-view
// path (and every lazily built piece of encoder state) runs once before
// the server reports ready.
const warmupSource = `
float warm[4];
void main() { for (int i = 0; i < 4; i++) { warm[i] = warm[i] * 2.0; } }
`

// warmUp runs the warm-up classification on inf and validates it: a
// model is fit to serve only if it produces at least one structurally
// sound prediction. It is the gate both initial warm-up and every
// hot-swap candidate must pass before a generation can answer traffic.
func warmUp(ctx context.Context, inf Inference) error {
	preds, err := inf.ClassifyContext(ctx, "warmup", warmupSource)
	if err != nil {
		return err
	}
	if len(preds) == 0 {
		return errors.New("serve: warm-up classify returned no predictions")
	}
	for _, p := range preds {
		if p.Proba < 0 || p.Proba > 1 || p.Proba != p.Proba {
			return fmt.Errorf("serve: warm-up parity check failed: loop %d proba %v outside [0,1]", p.LoopID, p.Proba)
		}
	}
	return nil
}

// Warmup runs one classification through the live generation and
// marks the server ready on success. Until it returns nil, /readyz and
// /v1/classify answer 503.
func (s *Server) Warmup(ctx context.Context) error {
	start := time.Now()
	gen := s.gen.Load()
	if err := warmUp(ctx, gen.inf); err != nil {
		obs.GetCounter("mvpar_http_warmup_failures_total").Inc()
		obs.Error("serve.warmup", "generation", gen.id, "err", err)
		return err
	}
	s.ready.Store(true)
	obs.Info("serve.ready", "warmup_seconds", time.Since(start).Seconds())
	return nil
}

// ReloadResult reports a successful hot swap.
type ReloadResult struct {
	Generation    uint64  `json:"generation"`
	Fingerprint   string  `json:"fingerprint,omitempty"`
	WarmupSeconds float64 `json:"warmup_seconds"`
}

// Reload performs one atomic hot swap: load a fresh Inference via
// cfg.Loader, warm and parity-check it OFF the serving path, then swap
// it in as a new generation while requests already admitted finish on
// the old one. Any failure — loader error (corrupt checkpoint, missing
// file), warm-up error, parity failure — rolls back: the swap never
// happens, the previous generation keeps serving untouched, and the
// error is returned. Concurrent reloads serialize.
func (s *Server) Reload(ctx context.Context) (ReloadResult, error) {
	if s.cfg.Loader == nil {
		return ReloadResult{}, ErrNoLoader
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	obs.GetCounter("mvpar_model_reloads_total").Inc()
	fail := func(stage string, err error) (ReloadResult, error) {
		obs.GetCounter("mvpar_model_reload_failures_total").Inc()
		obs.Error("serve.reload_rollback", "stage", stage,
			"generation", s.Generation(), "err", err)
		return ReloadResult{}, fmt.Errorf("serve: reload rolled back (%s): %w", stage, err)
	}
	inf, err := s.cfg.Loader(ctx)
	if err != nil {
		return fail("load", err)
	}
	if inf == nil {
		return fail("load", errors.New("loader returned no inference"))
	}
	start := time.Now()
	if err := warmUp(ctx, inf); err != nil {
		return fail("warmup", err)
	}
	warm := time.Since(start)
	gen := s.install(inf)
	// A successful swap implies a warm model: a server that reloaded
	// before its initial warm-up finished is ready now.
	s.ready.Store(true)
	obs.Info("serve.reloaded", "generation", gen.id,
		"fingerprint", gen.fp, "warmup_seconds", warm.Seconds())
	return ReloadResult{
		Generation:    gen.id,
		Fingerprint:   gen.fp,
		WarmupSeconds: warm.Seconds(),
	}, nil
}

// classify runs one panic-captured classification attempt of src on
// gen, under the "replica" trace span. There is no retry and no
// fallback: the weights are shared, so a panic the input caused would
// fire again on any retry. A captured panic answers 500, a spent
// deadline 504 and a program the pipeline rejects 422, each naming the
// stage that failed.
func (s *Server) classify(ctx context.Context, gen *generation, name, src string) ([]core.LoopPrediction, error) {
	cctx, rspan := trace.StartSpan(ctx, "replica")
	var preds []core.LoopPrediction
	err := faults.Capture(func() error {
		var cerr error
		preds, cerr = gen.inf.ClassifyContext(cctx, name, src)
		return cerr
	})
	rspan.End()
	var pe *faults.PanicError
	if errors.As(err, &pe) {
		obs.GetCounter("mvpar_http_panics_total").Inc()
		obs.Error("serve.panic", "program", name, "err", err)
		// Attribute the panic to a pipeline stage unless a nested
		// boundary already did, so the 500 body can name it.
		var se *faults.StageError
		if !errors.As(err, &se) {
			err = &faults.StageError{Program: name, Stage: "classify", Err: err}
		}
	}
	return preds, err
}

// ListenAndServe binds cfg.Addr, serves until ctx is cancelled (the CLI
// passes a SIGINT/SIGTERM-bound context), then drains gracefully within
// cfg.DrainTimeout. Warm-up runs in the background so the listener is up
// immediately; readiness flips once it passes. Warm-up runs once: the
// model is already in memory and classifies a constant program, so a
// failure would repeat. On failure the server shuts down and the warm-up
// error is returned, so the process exits non-zero instead of answering
// 503 forever.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	obs.Info("serve.listen", "addr", ln.Addr().String())
	errc := make(chan error, 1)
	go func() {
		if serr := s.hs.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			errc <- serr
		}
	}()
	warmc := make(chan error, 1)
	go func() {
		// A failure during normal shutdown is not fatal — the ctx.Done
		// arm below handles that drain.
		if werr := s.Warmup(ctx); werr != nil && ctx.Err() == nil {
			warmc <- fmt.Errorf("serve: warm-up failed: %w", werr)
		}
	}()
	var fatal error
	select {
	case err := <-errc:
		return err
	case fatal = <-warmc:
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if serr := s.Shutdown(dctx); fatal == nil {
		return serr
	}
	return fatal
}

// Shutdown drains the server: readiness drops immediately (/readyz
// answers 503 draining so load balancers stop routing, and classify
// requests arriving mid-drain answer 503), the listener keeps serving
// for cfg.DrainGrace so that readiness flip can propagate, then
// http.Server.Shutdown closes the listener and waits for every running
// handler, requests still waiting for a worker slot included. It drains
// only the server ListenAndServe runs: a caller that embeds Handler in
// its own http.Server shuts that server down itself.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if g := s.cfg.DrainGrace; g > 0 {
		t := time.NewTimer(g)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	return s.hs.Shutdown(ctx)
}
