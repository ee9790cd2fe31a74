package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"mvpar/internal/core"
	"mvpar/internal/faults"
	"mvpar/internal/interp"
	"mvpar/internal/obs/trace"
)

// ClassifyRequest is the POST /v1/classify body.
type ClassifyRequest struct {
	// Name labels the program in predictions and logs.
	Name string `json:"name"`
	// Source is the MiniC program (entry function main).
	Source string `json:"source"`
	// Timings asks for the per-request latency breakdown: the response
	// gains trace_id and a timings span tree (handler → batcher →
	// replica → dataset stages → per-loop GNN forwards).
	Timings bool `json:"timings,omitempty"`
}

// Prediction is one loop's classification in the wire format.
type Prediction struct {
	LoopID   int      `json:"loop_id"`
	Func     string   `json:"func"`
	Line     int      `json:"line"`
	Parallel bool     `json:"parallel"`
	Proba    float64  `json:"proba"`
	Oracle   bool     `json:"oracle"`
	Reasons  []string `json:"reasons,omitempty"`
}

// ClassifyResponse is the POST /v1/classify success body.
type ClassifyResponse struct {
	Name        string       `json:"name"`
	Predictions []Prediction `json:"predictions"`
	// Generation is the model generation that produced the answer (1 for
	// the initially loaded model, +1 per hot swap). Clients comparing
	// results across a reload can tell which weights answered.
	Generation uint64 `json:"generation"`
	// Precision names the inference engine that answered; it is always
	// "float64", the one engine, bit-identical to training.
	Precision string `json:"precision"`
	// TraceID and Timings are set only when the request asked for a
	// timings breakdown (ClassifyRequest.Timings) and it succeeded:
	// the request's trace ID and its span tree, offsets in microseconds
	// relative to the handler span's start.
	TraceID string           `json:"trace_id,omitempty"`
	Timings []trace.SpanData `json:"timings,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Reasons carries the failure's context: "stage: <stage>" for a
	// failed classification (plus the captured cause for 500s), retry
	// hints for 429/503.
	Reasons []string `json:"reasons,omitempty"`
}

// writeJSON answers with one JSON document and a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// toResponse converts predictions to the wire format.
func toResponse(name string, preds []core.LoopPrediction) ClassifyResponse {
	resp := ClassifyResponse{
		Name:        name,
		Predictions: make([]Prediction, 0, len(preds)),
		Precision:   core.PrecisionFloat64,
	}
	for _, p := range preds {
		resp.Predictions = append(resp.Predictions, Prediction{
			LoopID:   p.LoopID,
			Func:     p.Func,
			Line:     p.Line,
			Parallel: p.Parallel,
			Proba:    p.Proba,
			Oracle:   p.Oracle,
			Reasons:  p.Reasons,
		})
	}
	return resp
}

// handleClassify is POST /v1/classify: admission (readiness, body
// bounds, generation pinning), a worker slot, one attempt on this
// goroutine with a per-request deadline against the pinned generation,
// and error mapping (429 shed, 503 not-ready/draining, 504 deadline, 500
// captured panic, 422 programs the pipeline rejects).
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "use POST"})
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server draining"})
		return
	}
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error:   "model not ready",
			Reasons: []string{"warm-up classification has not completed; poll /readyz"},
		})
		return
	}
	var req ClassifyRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if req.Source == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty source"})
		return
	}
	if req.Name == "" {
		req.Name = "unnamed"
	}

	// Pin the request to the current generation: it executes against
	// this pointer even if a hot swap lands while it waits.
	gen := s.gen.Load()

	// Request tracing: in slow-capture mode (TraceSlow set) every request
	// is traced so any of them can be retained when it crosses the
	// threshold; otherwise only requests asking for a timings breakdown
	// pay for a trace. Untraced requests still time every stage into its
	// histogram, allocation-free.
	tctx := r.Context()
	var tr *trace.Trace
	var hspan trace.Span
	if s.cfg.TraceSlow > 0 || req.Timings {
		tctx, tr = trace.New(tctx, "handler")
		hspan = tr.Root()
		hspan.SetAttr("program", req.Name)
		defer s.finishTrace(tr, req.Name)
	} else {
		tctx, hspan = trace.StartSpan(tctx, "handler")
	}
	defer hspan.End()
	ctx, cancel := context.WithTimeout(tctx, s.cfg.RequestTimeout)
	defer cancel()
	var respTr *trace.Trace
	if req.Timings {
		respTr = tr
	}
	var preds []core.LoopPrediction
	var err error
	aerr := s.bat.run(ctx, func(bctx context.Context) {
		preds, err = s.classify(bctx, gen, req.Name, req.Source)
	})
	if errors.Is(aerr, ErrQueueFull) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error:   "server overloaded",
			Reasons: []string{fmt.Sprintf("%d requests already wait for a worker slot; retry with backoff", s.cfg.MaxQueue)},
		})
		return
	}
	if aerr != nil {
		// The deadline passed while the request waited for a slot.
		err = &faults.StageError{Program: req.Name, Stage: faults.StageAdmission, Err: aerr}
	}
	s.writeResult(w, req.Name, gen.id, preds, err, respTr)
}

// writeResult maps one attempt's result on generation gen to its HTTP
// answer. tr is non-nil only when the request asked for a timings
// breakdown; success responses then carry the trace ID and span tree.
func (s *Server) writeResult(w http.ResponseWriter, name string, gen uint64, preds []core.LoopPrediction, err error, tr *trace.Trace) {
	if err == nil {
		resp := toResponse(name, preds)
		resp.Generation = gen
		if tr != nil {
			resp.TraceID, resp.Timings = timingsPayload(tr)
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// Every failure a pipeline boundary attributed names its stage.
	var stage []string
	var se *faults.StageError
	if errors.As(err, &se) {
		stage = []string{"stage: " + se.Stage}
	}
	var pe *faults.PanicError
	switch {
	case errors.As(err, &pe):
		// The panicking request dies with a reasoned 500, the process
		// and every other request live on.
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{
			Error:   "classification panicked",
			Reasons: append([]string{pe.Error()}, stage...),
		})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
		errors.Is(err, interp.ErrCancelled):
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{
			Error:   fmt.Sprintf("classification exceeded the request deadline (%s)", s.cfg.RequestTimeout),
			Reasons: stage,
		})
	default:
		// The pipeline rejected the program itself (parse/lower/profile
		// error): the request, not the server, is at fault.
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error(), Reasons: stage})
	}
}

// handleReload is POST /v1/models/reload: one atomic hot swap through
// Server.Reload. 200 with the new generation on success, 500 with the
// rollback cause on failure (the previous model keeps serving), 501 when
// the server has no Loader.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "use POST"})
		return
	}
	res, err := s.Reload(r.Context())
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, ErrNoLoader):
		writeJSON(w, http.StatusNotImplemented, ErrorResponse{
			Error:   "no model loader configured",
			Reasons: []string{"start the server with a model checkpoint (-model) to enable hot reload"},
		})
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{
			Error:   "reload rolled back; previous model still serving",
			Reasons: []string{err.Error(), fmt.Sprintf("serving generation %d", s.Generation())},
		})
	}
}

// handleHealthz is liveness: 200 as long as the process serves, with
// the live generation and its model fingerprint.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	gen := s.gen.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":          true,
		"generation":  gen.id,
		"fingerprint": gen.fp,
	})
}

// handleReadyz is readiness with a state machine: "starting" (503)
// until the warm-up classification passes, "draining" (503) once
// Shutdown begins — the signal load balancers key on during the drain
// grace window — and "ready" (200) otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	state := "ready"
	code := http.StatusOK
	switch {
	case s.draining.Load():
		state, code = "draining", http.StatusServiceUnavailable
	case !s.ready.Load():
		state, code = "starting", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"ready":      code == http.StatusOK,
		"state":      state,
		"generation": s.Generation(),
	})
}
