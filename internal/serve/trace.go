package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
)

// finishTrace ends a request's trace and, when the request ran longer
// than the -trace-slow threshold, retains it in the slow-request ring
// (served at /debug/traces), bumps mvpar_http_slow_requests_total and
// logs the span tree structurally so an operator sees where the time
// went without curling anything.
func (s *Server) finishTrace(tr *trace.Trace, program string) {
	tr.Finish()
	if s.cfg.TraceSlow <= 0 || tr.Duration() < s.cfg.TraceSlow {
		return
	}
	obs.GetCounter("mvpar_http_slow_requests_total").Inc()
	if s.traces != nil {
		s.traces.Add(tr)
	}
	obs.Warn("serve.slow_request",
		"trace", tr.ID(),
		"program", program,
		"seconds", tr.Duration().Seconds(),
		"threshold_seconds", s.cfg.TraceSlow.Seconds(),
		"spans", renderSpanTree(tr.Spans()))
}

// renderSpanTree flattens one trace's spans into a compact depth-indented
// single string ("handler 12.4ms { batcher 0.2ms { replica 12.0ms ... }}")
// for structured logs. Children are grouped under their parent in start
// order; durations are rounded to the microsecond.
func renderSpanTree(spans []trace.SpanData) string {
	children := map[uint64][]trace.SpanData{}
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool { return c[i].StartUS < c[j].StartUS })
	}
	var b strings.Builder
	var walk func(parent uint64)
	walk = func(parent uint64) {
		for i, sp := range children[parent] {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s %.0fus", sp.Name, sp.DurUS)
			if kids := children[sp.Span]; len(kids) > 0 {
				b.WriteString(" { ")
				walk(sp.Span)
				b.WriteString(" }")
			}
		}
	}
	walk(0)
	return b.String()
}

// debugTraceEntry is one retained slow request in the answer of
// /debug/traces.
type debugTraceEntry struct {
	TraceID         string           `json:"trace_id"`
	Name            string           `json:"name"`
	DurationSeconds float64          `json:"duration_seconds"`
	Dropped         int              `json:"dropped_spans,omitempty"`
	Spans           []trace.SpanData `json:"spans"`
}

// handleDebugTraces is GET /debug/traces: the retained slow-request
// traces, newest first, as one JSON document with the full span tree of
// every retained trace; ?n=K caps the answer to the K most recent. 404s
// when slow-request capture is off (TraceSlow unset), with a reason
// naming the flag that turns it on.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "use GET"})
		return
	}
	if s.traces == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{
			Error:   "slow-request retention is disabled",
			Reasons: []string{"start the server with -trace-slow to retain slow traces"},
		})
		return
	}
	traces := s.traces.Snapshot()
	if nstr := r.URL.Query().Get("n"); nstr != "" {
		n, err := strconv.Atoi(nstr)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad n=%q", nstr)})
			return
		}
		if n < len(traces) {
			traces = traces[:n]
		}
	}
	entries := make([]debugTraceEntry, 0, len(traces))
	for _, tr := range traces {
		entries = append(entries, debugTraceEntry{
			TraceID:         tr.ID(),
			Name:            tr.Name(),
			DurationSeconds: tr.Duration().Seconds(),
			Dropped:         tr.Dropped(),
			Spans:           tr.Spans(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"captured": s.traces.Total(),
		"retained": len(entries),
		"traces":   entries,
	})
}

// timingsPayload converts a finished trace into the optional "timings"
// block of a ClassifyResponse: trace ID plus the span tree, offsets
// relative to the handler span's start.
func timingsPayload(tr *trace.Trace) (string, []trace.SpanData) {
	tr.Finish()
	return tr.ID(), tr.Spans()
}
