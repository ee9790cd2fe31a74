package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mvpar/internal/obs/trace"
)

// postTimings sends one classify request asking for the timings
// breakdown; goroutine-safe (failures come back as code 0).
func postTimings(url, name, src string) (int, ClassifyResponse) {
	body, _ := json.Marshal(ClassifyRequest{Name: name, Source: src, Timings: true})
	resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, ClassifyResponse{}
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var ok ClassifyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ok); err != nil {
			return 0, ClassifyResponse{}
		}
	}
	return resp.StatusCode, ok
}

// lineage walks sp's parent chain to the root and returns the span
// names encountered, child first.
func lineage(spans []trace.SpanData, sp trace.SpanData) []string {
	byID := map[uint64]trace.SpanData{}
	for _, s := range spans {
		byID[s.Span] = s
	}
	names := []string{sp.Name}
	for sp.Parent != 0 {
		var ok bool
		sp, ok = byID[sp.Parent]
		if !ok {
			names = append(names, "(missing parent)")
			break
		}
		names = append(names, sp.Name)
	}
	return names
}

// hasChain reports whether want appears as a subsequence of got (got is
// child→root order, want listed root→leaf, so match against reversed
// want).
func hasChain(got []string, want ...string) bool {
	i := len(want) - 1
	for _, name := range got {
		if i >= 0 && name == want[i] {
			i--
		}
	}
	return i < 0
}

// attrValue returns the named attribute of a span, or "".
func attrValue(sp trace.SpanData, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestConcurrentRequestSpanLineage is the tracing acceptance test: under
// a concurrent burst, every response's span tree must form the handler →
// batcher → replica → gnn.forward lineage under one shared trace ID, with
// no span leaking between requests that ran at the same time — each
// trace's classify span must name exactly the program its request
// submitted. Runs under -race via make test.
func TestConcurrentRequestSpanLineage(t *testing.T) {
	pl := e2eTrained(t)
	cls, err := pl.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	// Trace every request (nanosecond slow threshold) so the burst also
	// populates /debug/traces; every request runs the pipeline and owns
	// a full trace.
	s := New(cls, Config{
		MaxQueue:  64,
		TraceSlow: time.Nanosecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	const rounds = 4
	type reply struct {
		name string
		code int
		resp ClassifyResponse
	}
	replies := make(chan reply, rounds*len(e2eSources))
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for name, src := range e2eSources {
			wg.Add(1)
			go func(name, src string) {
				defer wg.Done()
				code, resp := postTimings(ts.URL, name, src)
				replies <- reply{name, code, resp}
			}(name, src)
		}
	}
	wg.Wait()
	close(replies)

	seenIDs := map[string]bool{}
	for got := range replies {
		if got.code != 200 {
			t.Fatalf("request %s = %d, want 200", got.name, got.code)
		}
		if got.resp.TraceID == "" || len(got.resp.Timings) == 0 {
			t.Fatalf("request %s: missing trace (%q, %d spans)", got.name, got.resp.TraceID, len(got.resp.Timings))
		}
		if seenIDs[got.resp.TraceID] {
			t.Fatalf("trace ID %s reused across requests", got.resp.TraceID)
		}
		seenIDs[got.resp.TraceID] = true
		var forwards int
		for _, sp := range got.resp.Timings {
			// One shared trace ID across the whole tree.
			if sp.TraceID != got.resp.TraceID {
				t.Fatalf("request %s: span %s carries trace %s, response says %s",
					got.name, sp.Name, sp.TraceID, got.resp.TraceID)
			}
			// No cross-request contamination: the classify span (and the
			// root) must name this request's program, not a concurrent
			// request's.
			if sp.Name == "classify" || (sp.Name == "handler" && sp.Parent == 0) {
				if p := attrValue(sp, "program"); p != got.name {
					t.Fatalf("request %s: %s span names program %q", got.name, sp.Name, p)
				}
			}
			if sp.Name != "gnn.forward" {
				continue
			}
			forwards++
			chain := lineage(got.resp.Timings, sp)
			if !hasChain(chain, "handler", "batcher", "replica", "gnn.forward") {
				t.Fatalf("request %s: forward span lineage %v lacks handler→batcher→replica→forward", got.name, chain)
			}
		}
		if forwards == 0 {
			t.Fatalf("request %s: no gnn.forward span in %d spans", got.name, len(got.resp.Timings))
		}
	}

	// Every request crossed the nanosecond threshold, so the ring must
	// have captured them (bounded by its capacity) and /debug/traces must
	// serve them back with the same complete lineage.
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatalf("GET /debug/traces: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /debug/traces = %d, want 200", resp.StatusCode)
	}
	var doc struct {
		Captured uint64 `json:"captured"`
		Retained int    `json:"retained"`
		Traces   []struct {
			TraceID string           `json:"trace_id"`
			Spans   []trace.SpanData `json:"spans"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding /debug/traces: %v", err)
	}
	if doc.Captured < uint64(rounds*len(e2eSources)) {
		t.Fatalf("captured %d slow traces, want >= %d", doc.Captured, rounds*len(e2eSources))
	}
	if doc.Retained == 0 || len(doc.Traces) != doc.Retained {
		t.Fatalf("retained %d but served %d traces", doc.Retained, len(doc.Traces))
	}
	for _, tr := range doc.Traces {
		var ok bool
		for _, sp := range tr.Spans {
			if sp.Name == "gnn.forward" && hasChain(lineage(tr.Spans, sp), "handler", "batcher", "replica", "gnn.forward") {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("retained trace %s lacks a complete forward lineage", tr.TraceID)
		}
	}
}

// TestDebugTracesAnswersOnlyWhenRetaining pins /debug/traces to its
// contract: it serves the ring only when slow-request capture is on, and
// otherwise 404s with a reason naming the flag that turns it on.
func TestDebugTracesAnswersOnlyWhenRetaining(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		wantCode int
		wantFlag string // flag the 404 reason must name
	}{
		{"default", Config{}, http.StatusNotFound, "-trace-slow"},
		{"slow+ring", Config{TraceSlow: time.Millisecond}, http.StatusOK, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, &stubInference{}, tc.cfg)
			resp, err := http.Get(ts.URL + "/debug/traces")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("GET /debug/traces = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			if tc.wantFlag == "" {
				return
			}
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if len(e.Reasons) != 1 || !strings.Contains(e.Reasons[0], tc.wantFlag) {
				t.Fatalf("404 reasons = %q, want one naming %s", e.Reasons, tc.wantFlag)
			}
		})
	}
}
