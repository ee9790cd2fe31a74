package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mvpar/internal/core"
	"mvpar/internal/obs"
)

// stubInference is a controllable Inference: warm-up calls always
// succeed immediately; regular calls optionally block until released,
// fail, or panic. It is safe for concurrent use.
type stubInference struct {
	calls    atomic.Int64 // non-warm-up calls
	started  chan string  // receives the program name as a call begins
	release  chan struct{}
	err      error
	panicMsg string
}

func (s *stubInference) ClassifyContext(ctx context.Context, name, src string) ([]core.LoopPrediction, error) {
	if name == "warmup" {
		return []core.LoopPrediction{{LoopID: 1, Func: "main", Line: 2, Parallel: true, Proba: 0.9, Oracle: true}}, nil
	}
	s.calls.Add(1)
	if s.started != nil {
		s.started <- name
	}
	if s.release != nil {
		select {
		case <-s.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if s.panicMsg != "" {
		panic(s.panicMsg)
	}
	if s.err != nil {
		return nil, s.err
	}
	return []core.LoopPrediction{{LoopID: 1, Func: "main", Line: 2, Parallel: true, Proba: 0.75, Oracle: true}}, nil
}

// newTestServer builds a server around inf, serves it via httptest, and
// tears both down with the test.
func newTestServer(t *testing.T, inf Inference, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(inf, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// postClassify sends one classify request and decodes the response body.
func postClassify(t *testing.T, url, name, src string) (int, ClassifyResponse, ErrorResponse) {
	t.Helper()
	code, ok, bad := tryClassify(url, name, src)
	if code == 0 {
		t.Fatalf("POST /v1/classify %s: no decodable answer", name)
	}
	return code, ok, bad
}

// tryClassify is postClassify for spawned goroutines: it reports failure
// through the return value (code 0) instead of t.Fatal.
func tryClassify(url, name, src string) (int, ClassifyResponse, ErrorResponse) {
	body, _ := json.Marshal(ClassifyRequest{Name: name, Source: src})
	resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, ClassifyResponse{}, ErrorResponse{}
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var ok ClassifyResponse
	var bad ErrorResponse
	out := any(&bad)
	if resp.StatusCode == http.StatusOK {
		out = &ok
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return 0, ClassifyResponse{}, ErrorResponse{}
	}
	return resp.StatusCode, ok, bad
}

// hasReason reports whether any of reasons contains want.
func hasReason(reasons []string, want string) bool {
	for _, r := range reasons {
		if strings.Contains(r, want) {
			return true
		}
	}
	return false
}

const stubSource = "void main() { for (int i = 0; i < 4; i++) { } }"

func TestServerNotReadyBeforeWarmup(t *testing.T) {
	s, ts := newTestServer(t, &stubInference{}, Config{})

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before warmup = %d, want 503", resp.StatusCode)
	}
	if code, _, e := postClassify(t, ts.URL, "p", stubSource); code != http.StatusServiceUnavailable {
		t.Fatalf("classify before warmup = %d (%+v), want 503", code, e)
	}

	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after warmup = %d, want 200", resp.StatusCode)
	}
	code, ok, _ := postClassify(t, ts.URL, "p", stubSource)
	if code != http.StatusOK || len(ok.Predictions) != 1 || !ok.Predictions[0].Parallel {
		t.Fatalf("classify after warmup = %d %+v", code, ok)
	}
}

func TestServerHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, &stubInference{}, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "mvpar_http_requests_total") {
		t.Fatalf("/metrics dump missing mvpar_http_requests_total:\n%s", raw)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	s, ts := newTestServer(t, &stubInference{}, Config{MaxBodyBytes: 256})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/classify = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", resp.StatusCode)
	}

	if code, _, _ := postClassify(t, ts.URL, "p", ""); code != http.StatusBadRequest {
		t.Fatalf("empty source = %d, want 400", code)
	}

	big := strings.Repeat("x", 4096)
	if code, _, _ := postClassify(t, ts.URL, "p", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", code)
	}
}

func TestServerQueueOverflowSheds429(t *testing.T) {
	stub := &stubInference{
		started: make(chan string, 16),
		release: make(chan struct{}),
	}
	s, ts := newTestServer(t, stub, Config{MaxQueue: 1, Workers: 1})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	codes := make(chan int, 2)
	// First request: takes the only worker slot and blocks in execution.
	go func() {
		code, _, _ := tryClassify(ts.URL, "r1", stubSource)
		codes <- code
	}()
	<-stub.started

	// Second request: waits for the slot, filling the capacity-1 queue.
	// Wait until the queue-depth gauge confirms it.
	go func() {
		code, _, _ := tryClassify(ts.URL, "r2", stubSource)
		codes <- code
	}()
	depth := obs.GetGauge("mvpar_http_queue_depth")
	deadline := time.Now().Add(5 * time.Second)
	for depth.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued for the slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Third request: queue full, must shed synchronously with 429.
	code, _, errResp := postClassify(t, ts.URL, "r3", stubSource)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow request = %d (%+v), want 429", code, errResp)
	}
	if errResp.Error == "" {
		t.Fatal("429 carried no error body")
	}

	// Release the pipeline: the two admitted requests must both succeed.
	close(stub.release)
	for i := 0; i < 2; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("admitted request finished with %d, want 200", c)
		}
	}
	if n := obs.GetCounter("mvpar_http_shed_total").Value(); n < 1 {
		t.Fatalf("mvpar_http_shed_total = %d, want >= 1", n)
	}
}

func TestServerGracefulDrainCompletesInFlight(t *testing.T) {
	stub := &stubInference{
		started: make(chan string, 16),
		release: make(chan struct{}),
	}
	s, ts := newTestServer(t, stub, Config{Workers: 1})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		code  int
		preds int
	}
	inflight := make(chan outcome, 1)
	go func() {
		code, ok, _ := tryClassify(ts.URL, "inflight", stubSource)
		inflight <- outcome{code, len(ok.Predictions)}
	}()
	<-stub.started // the request is executing (and blocked)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Drain flips readiness and rejects new work with 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _, _ := postClassify(t, ts.URL, "late", stubSource)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mid-drain request = %d, want 503", code)
		}
		time.Sleep(time.Millisecond)
	}

	// The in-flight request must complete successfully, then Shutdown
	// must return cleanly.
	close(stub.release)
	got := <-inflight
	if got.code != http.StatusOK || got.preds != 1 {
		t.Fatalf("in-flight request during drain = %+v, want 200 with 1 prediction", got)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}

// TestRepeatSubmissionsRunTheModel: the server keeps no response cache,
// so two identical submissions both reach the model and neither body
// carries a "cached" key. Every loop is answered from both views, so
// neither the body nor a prediction carries a "degraded" key either.
func TestRepeatSubmissionsRunTheModel(t *testing.T) {
	stub := &stubInference{}
	s, ts := newTestServer(t, stub, Config{})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(ClassifyRequest{Name: "prog", Source: stubSource})
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d %s", i, resp.StatusCode, raw)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatalf("request %d body %q: %v", i, raw, err)
		}
		if _, ok := fields["cached"]; ok {
			t.Fatalf("request %d body carries a cached key: %s", i, raw)
		}
		var preds []map[string]json.RawMessage
		if err := json.Unmarshal(fields["predictions"], &preds); err != nil || len(preds) == 0 {
			t.Fatalf("request %d predictions %s: %v", i, fields["predictions"], err)
		}
		for _, obj := range append(preds, fields) {
			if _, ok := obj["degraded"]; ok {
				t.Fatalf("request %d body carries a degraded key: %s", i, raw)
			}
		}
	}
	if got := stub.calls.Load(); got != 2 {
		t.Fatalf("model ran %d times for 2 identical requests, want 2", got)
	}
}

func TestServerCapturesPanics(t *testing.T) {
	stub := &stubInference{panicMsg: "encoder exploded"}
	s, ts := newTestServer(t, stub, Config{})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	code, _, errResp := postClassify(t, ts.URL, "boom", stubSource)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking request = %d, want 500", code)
	}
	if errResp.Error != "classification panicked" {
		t.Fatalf("500 body = %+v, want the panic named", errResp)
	}
	var foundCause, foundStage bool
	for _, r := range errResp.Reasons {
		if strings.Contains(r, "encoder exploded") {
			foundCause = true
		}
		if strings.Contains(r, "stage:") {
			foundStage = true
		}
	}
	if !foundCause {
		t.Fatalf("500 reasons %v missing the panic cause", errResp.Reasons)
	}
	if !foundStage {
		t.Fatalf("500 reasons %v missing the stage attribution", errResp.Reasons)
	}

	// The process survived: the next request succeeds.
	stub.panicMsg = ""
	if code, _, _ := postClassify(t, ts.URL, "fine", stubSource); code != http.StatusOK {
		t.Fatalf("request after panic = %d, want 200", code)
	}
}

func TestServerUnprocessableProgram(t *testing.T) {
	stub := &stubInference{err: fmt.Errorf("parse: unexpected token")}
	s, ts := newTestServer(t, stub, Config{})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, _, errResp := postClassify(t, ts.URL, "bad", stubSource)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("rejected program = %d (%+v), want 422", code, errResp)
	}
}

// TestServerSlotWaitDeadline504 pins the waiter's deadline: a request
// still waiting for a worker slot when its deadline passes answers 504
// without running, leaves the queue-depth gauge at 0 and releases its
// generation pin, so the next Reload drains the old generation.
func TestServerSlotWaitDeadline504(t *testing.T) {
	stub := &genStub{gen: 1}
	cfg := Config{Workers: 1, RequestTimeout: 50 * time.Millisecond}
	cfg.Loader = func(context.Context) (Inference, error) { return &genStub{gen: 2}, nil }
	s, ts := newTestServer(t, stub, cfg)
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Hold the only worker slot, as a long-running attempt would.
	s.bat.slots <- struct{}{}
	code, _, errResp := postClassify(t, ts.URL, "waiter", stubSource)
	<-s.bat.slots
	if code != http.StatusGatewayTimeout {
		t.Fatalf("request that never got a slot = %d (%+v), want 504", code, errResp)
	}
	if n := stub.calls.Load(); n != 0 {
		t.Fatalf("classification ran %d times, want 0 (the request never held a slot)", n)
	}
	if d := obs.GetGauge(queueDepthGauge).Value(); d != 0 {
		t.Fatalf("queue depth after the waiter left = %v, want 0", d)
	}

	drainedBefore := obs.GetCounter("mvpar_model_generations_drained_total").Value()
	if _, err := s.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for obs.GetCounter("mvpar_model_generations_drained_total").Value() != drainedBefore+1 {
		if time.Now().After(deadline) {
			t.Fatal("old generation never drained: the timed-out waiter kept its pin")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerAttemptOverrun504 pins the attempt's deadline: a
// classification that outlives RequestTimeout answers 504 at its next
// context check, and the slot it held serves the next request.
func TestServerAttemptOverrun504(t *testing.T) {
	stub := &stubInference{release: make(chan struct{})}
	s, ts := newTestServer(t, stub, Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, _, errResp := postClassify(t, ts.URL, "slow", stubSource)
	if code != http.StatusGatewayTimeout || !strings.Contains(errResp.Error, "deadline") {
		t.Fatalf("overrunning attempt = %d (%+v), want 504 naming the deadline", code, errResp)
	}
	close(stub.release)
	if code, _, _ := postClassify(t, ts.URL, "next", stubSource); code != http.StatusOK {
		t.Fatalf("request after the overrun = %d, want 200", code)
	}
}

// failingInference always errors, warm-up included.
type failingInference struct{}

func (failingInference) ClassifyContext(context.Context, string, string) ([]core.LoopPrediction, error) {
	return nil, fmt.Errorf("model file corrupt")
}

// TestListenAndServeWarmupFailurePropagates pins down the dead-but-
// running fix: when warm-up keeps failing, ListenAndServe must return
// the warm-up error (so the CLI exits non-zero and orchestration
// restarts) instead of serving 503 forever.
func TestListenAndServeWarmupFailurePropagates(t *testing.T) {
	oldAttempts, oldBackoff := warmupAttempts, warmupBackoffStart
	warmupAttempts, warmupBackoffStart = 2, time.Millisecond
	defer func() { warmupAttempts, warmupBackoffStart = oldAttempts, oldBackoff }()

	s := New(failingInference{}, Config{Addr: "127.0.0.1:0", DrainTimeout: 5 * time.Second})
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(context.Background()) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "warm-up failed after 2 attempt(s)") {
			t.Fatalf("ListenAndServe returned %v, want propagated warm-up failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListenAndServe did not return after persistent warm-up failure")
	}
}
