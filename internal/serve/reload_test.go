package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"mvpar/internal/core"
	"mvpar/internal/obs"
)

// genStub is an Inference whose answers identify which model generation
// produced them (Func = "gen-<n>"), so swap tests can prove no response
// crosses generations. Warm-up calls succeed (unless warmErr is set)
// without blocking; regular calls optionally block until released or
// always panic.
type genStub struct {
	gen      int
	calls    atomic.Int64 // non-warm-up calls
	started  chan string
	release  chan struct{}
	warmErr  error
	panicAll bool
}

func (g *genStub) pred() []core.LoopPrediction {
	return []core.LoopPrediction{{LoopID: 1, Func: fmt.Sprintf("gen-%d", g.gen), Line: 2, Parallel: true, Proba: 0.9}}
}

func (g *genStub) ClassifyContext(ctx context.Context, name, src string) ([]core.LoopPrediction, error) {
	if name == "warmup" {
		if g.warmErr != nil {
			return nil, g.warmErr
		}
		return g.pred(), nil
	}
	g.calls.Add(1)
	if g.started != nil {
		g.started <- name
	}
	if g.release != nil {
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if g.panicAll {
		panic(fmt.Sprintf("gen-%d replica wedged", g.gen))
	}
	return g.pred(), nil
}

func (g *genStub) Fingerprint() string { return fmt.Sprintf("fp-%d", g.gen) }

// postReload POSTs /v1/models/reload and returns the status code + body.
func postReload(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/models/reload", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /v1/models/reload: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

func TestServerReloadSwapsGeneration(t *testing.T) {
	gen1 := &genStub{gen: 1}
	gen2 := &genStub{gen: 2}
	var cfg Config
	cfg.Loader = func(context.Context) (Inference, error) {
		return gen2, nil
	}
	s, ts := newTestServer(t, gen1, cfg)
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	code, first, _ := postClassify(t, ts.URL, "p", stubSource)
	if code != 200 || first.Generation != 1 || first.Predictions[0].Func != "gen-1" {
		t.Fatalf("pre-swap classify = %d %+v, want generation 1 from gen-1", code, first)
	}

	code, body := postReload(t, ts.URL)
	if code != 200 || !strings.Contains(body, `"generation":2`) {
		t.Fatalf("reload = %d %s, want 200 with generation 2", code, body)
	}
	if got := s.Generation(); got != 2 {
		t.Fatalf("Generation() = %d, want 2", got)
	}

	// The same request now answers from gen-2.
	code, second, _ := postClassify(t, ts.URL, "p", stubSource)
	if code != 200 || second.Generation != 2 || second.Predictions[0].Func != "gen-2" {
		t.Fatalf("post-swap classify = %d %+v, want a generation-2 answer", code, second)
	}

	// /healthz reports the swapped identity.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `"generation":2`) || !strings.Contains(string(raw), "fp-2") {
		t.Fatalf("/healthz after swap = %s, want generation 2 + fp-2", raw)
	}
}

func TestServerReloadRollsBackOnLoaderError(t *testing.T) {
	gen1 := &genStub{gen: 1}
	cfg := Config{}
	cfg.Loader = func(context.Context) (Inference, error) {
		return nil, errors.New("checkpoint corrupt: crc mismatch")
	}
	s, ts := newTestServer(t, gen1, cfg)
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	failsBefore := obs.GetCounter("mvpar_model_reload_failures_total").Value()

	code, body := postReload(t, ts.URL)
	if code != 500 || !strings.Contains(body, "rolled back") || !strings.Contains(body, "crc mismatch") {
		t.Fatalf("failed reload = %d %s, want 500 naming the rollback cause", code, body)
	}
	if got := s.Generation(); got != 1 {
		t.Fatalf("Generation after rollback = %d, want 1", got)
	}
	if n := obs.GetCounter("mvpar_model_reload_failures_total").Value(); n != failsBefore+1 {
		t.Fatalf("mvpar_model_reload_failures_total = %d, want %d", n, failsBefore+1)
	}
	// The old model keeps serving.
	if code, ok, _ := postClassify(t, ts.URL, "p", stubSource); code != 200 || ok.Generation != 1 {
		t.Fatalf("classify after rollback = %d gen %d, want 200 on generation 1", code, ok.Generation)
	}
}

func TestServerReloadRollsBackOnWarmupFailure(t *testing.T) {
	gen1 := &genStub{gen: 1}
	bad := &genStub{gen: 2, warmErr: errors.New("NaN logits on warm-up input")}
	cfg := Config{}
	cfg.Loader = func(context.Context) (Inference, error) {
		return bad, nil
	}
	s, ts := newTestServer(t, gen1, cfg)
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	code, body := postReload(t, ts.URL)
	if code != 500 || !strings.Contains(body, "rolled back") || !strings.Contains(body, "NaN logits") {
		t.Fatalf("reload with failing warm-up = %d %s, want 500 rollback", code, body)
	}
	if s.Generation() != 1 {
		t.Fatalf("Generation = %d, want 1 (swap must not happen)", s.Generation())
	}
	if code, ok, _ := postClassify(t, ts.URL, "p", stubSource); code != 200 || ok.Predictions[0].Func != "gen-1" {
		t.Fatalf("classify after rollback = %d %+v, want gen-1 answer", code, ok)
	}
}

func TestServerReloadWithoutLoaderAnswers501(t *testing.T) {
	s, ts := newTestServer(t, &genStub{gen: 1}, Config{})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := postReload(t, ts.URL); code != http.StatusNotImplemented {
		t.Fatalf("reload without loader = %d %s, want 501", code, body)
	}
	if _, err := s.Reload(context.Background()); !errors.Is(err, ErrNoLoader) {
		t.Fatalf("Reload without loader = %v, want ErrNoLoader", err)
	}
}

// TestServerReloadDrainsOldGenerationInFlight pins both halves of a hot
// swap: a request admitted before the swap finishes on the OLD
// generation and reports the old generation, while requests after the
// swap answer from the new one.
func TestServerReloadDrainsOldGenerationInFlight(t *testing.T) {
	gen1 := &genStub{gen: 1, started: make(chan string, 4), release: make(chan struct{})}
	gen2 := &genStub{gen: 2}
	setJobs(t, 1)
	cfg := Config{}
	cfg.Loader = func(context.Context) (Inference, error) {
		return gen2, nil
	}
	s, ts := newTestServer(t, gen1, cfg)
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	type reply struct {
		code int
		resp ClassifyResponse
	}
	inflight := make(chan reply, 1)
	go func() {
		code, ok, _ := tryClassify(ts.URL, "pinned", stubSource)
		inflight <- reply{code, ok}
	}()
	<-gen1.started // executing on generation 1, blocked

	if _, err := s.Reload(context.Background()); err != nil {
		t.Fatalf("Reload with a request in flight: %v", err)
	}
	if got := s.Generation(); got != 2 {
		t.Fatalf("Generation after swap = %d, want 2", got)
	}

	// The pinned request completes on the OLD generation.
	close(gen1.release)
	got := <-inflight
	if got.code != 200 || got.resp.Generation != 1 || got.resp.Predictions[0].Func != "gen-1" {
		t.Fatalf("pinned request = %d %+v, want a generation-1 answer from gen-1", got.code, got.resp)
	}

	// Traffic after the swap answers from the new generation.
	if code, ok, _ := postClassify(t, ts.URL, "fresh", stubSource); code != 200 ||
		ok.Generation != 2 || ok.Predictions[0].Func != "gen-2" {
		t.Fatalf("post-swap classify = %d %+v, want generation 2", code, ok)
	}
}
