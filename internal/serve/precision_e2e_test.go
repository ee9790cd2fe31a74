package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mvpar/internal/core"
)

// TestServerFloat32PrecisionE2E is the serving-path half of the
// accuracy-parity gate: a server built over a float32-precision
// classifier must answer every e2e program with (a) the "precision"
// field set to float32 on the wire, (b) the exact labels the float64
// reference produces, and (c) probabilities within the parity tolerance.
// It runs under -race in CI like the other e2e tests.
func TestServerFloat32PrecisionE2E(t *testing.T) {
	pl := e2eTrained(t)

	// Float64 ground truth through the plain classifier path.
	cls64, err := pl.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	if got := cls64.Precision(); got != core.PrecisionFloat64 {
		t.Fatalf("default classifier precision = %q, want %q", got, core.PrecisionFloat64)
	}
	ref := map[string][]core.LoopPrediction{}
	for name, src := range e2eSources {
		preds, err := cls64.Classify(name, src)
		if err != nil {
			t.Fatalf("float64 Classify(%s): %v", name, err)
		}
		if len(preds) == 0 {
			t.Fatalf("float64 Classify(%s) returned no predictions", name)
		}
		ref[name] = preds
	}

	cls32, err := pl.ClassifierPrecision(core.PrecisionFloat32)
	if err != nil {
		t.Fatal(err)
	}
	if got := cls32.Precision(); got != core.PrecisionFloat32 {
		t.Fatalf("float32 classifier precision = %q, want %q", got, core.PrecisionFloat32)
	}
	if cls32.Fingerprint() == cls64.Fingerprint() {
		t.Fatal("float32 and float64 handles share a fingerprint; precision must be part of model identity")
	}

	// Cache disabled so every request exercises the quantized forward.
	s := New(cls32, Config{CacheSize: -1})
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

	for name, src := range e2eSources {
		body, _ := json.Marshal(ClassifyRequest{Name: name, Source: src})
		hr, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/classify(%s): %v", name, err)
		}
		raw, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("classify(%s) = %d: %s", name, hr.StatusCode, raw)
		}
		// The wire format must carry the precision field literally, not
		// just decode into a struct default.
		if !strings.Contains(string(raw), `"precision":"float32"`) {
			t.Fatalf("response body for %s lacks the precision field: %s", name, raw)
		}
		var resp ClassifyResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("bad 200 body %q: %v", raw, err)
		}
		if resp.Precision != core.PrecisionFloat32 {
			t.Fatalf("response precision = %q, want float32", resp.Precision)
		}
		want := ref[name]
		if len(resp.Predictions) != len(want) {
			t.Fatalf("%s: %d predictions, float64 reference has %d", name, len(resp.Predictions), len(want))
		}
		for i, p := range resp.Predictions {
			if p.Parallel != want[i].Parallel {
				t.Fatalf("%s loop %d: float32 label %v, float64 label %v (parity flip on the serving path)",
					name, p.LoopID, p.Parallel, want[i].Parallel)
			}
			if drift := math.Abs(p.Proba - want[i].Proba); drift > 1e-4 {
				t.Fatalf("%s loop %d: proba drift %v exceeds 1e-4 (float32 %v, float64 %v)",
					name, p.LoopID, drift, p.Proba, want[i].Proba)
			}
		}
	}
}
