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

// Serving-path drift budget for the int8 tier on the e2e fixture. int8 is
// licensed at a non-zero budget (`mvpar parity`), but this is still tight
// enough that a broken kernel (wrong scale, overflow) fails loudly.
const (
	int8E2EProbaTol = 0.08
	int8E2EMaxFlips = 1 // per program, and only on near-boundary loops
)

// TestServerInt8PrecisionE2E is the serving-path half of the int8 parity
// license: a server built over an int8-precision classifier must answer
// every e2e program with (a) the "precision" field set to int8 on the
// wire, (b) labels within the flip budget of the float64 reference (flips
// only on near-boundary probabilities), and (c) probabilities within the
// int8 drift tolerance. It also pins tier identity: precision is part
// of model identity, so the float64 and int8 handles must carry distinct
// fingerprints and /healthz always tells which tier answers.
// It runs under -race in CI like the other e2e tests.
func TestServerInt8PrecisionE2E(t *testing.T) {
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

	cls8, err := pl.ClassifierPrecision(core.PrecisionInt8)
	if err != nil {
		t.Fatal(err)
	}
	if got := cls8.Precision(); got != core.PrecisionInt8 {
		t.Fatalf("int8 classifier precision = %q, want %q", got, core.PrecisionInt8)
	}
	if fp := cls8.Fingerprint(); fp == cls64.Fingerprint() {
		t.Fatalf("float64 and int8 share fingerprint %s; /healthz could not tell the tiers apart", fp)
	}

	s := New(cls8, Config{})
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
		if !strings.Contains(string(raw), `"precision":"int8"`) {
			t.Fatalf("response body for %s lacks the precision field: %s", name, raw)
		}
		var resp ClassifyResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("bad 200 body %q: %v", raw, err)
		}
		if resp.Precision != core.PrecisionInt8 {
			t.Fatalf("response precision = %q, want int8", resp.Precision)
		}
		want := ref[name]
		if len(resp.Predictions) != len(want) {
			t.Fatalf("%s: %d predictions, float64 reference has %d", name, len(resp.Predictions), len(want))
		}
		flips := 0
		for i, p := range resp.Predictions {
			if drift := math.Abs(p.Proba - want[i].Proba); drift > int8E2EProbaTol {
				t.Fatalf("%s loop %d: proba drift %v exceeds %v (int8 %v, float64 %v)",
					name, p.LoopID, drift, int8E2EProbaTol, p.Proba, want[i].Proba)
			}
			if p.Parallel != want[i].Parallel {
				flips++
				if math.Abs(want[i].Proba-0.5) > int8E2EProbaTol {
					t.Fatalf("%s loop %d: int8 flipped a confident label (float64 proba %v)",
						name, p.LoopID, want[i].Proba)
				}
			}
		}
		if flips > int8E2EMaxFlips {
			t.Fatalf("%s: %d label flips exceed the e2e budget %d", name, flips, int8E2EMaxFlips)
		}
	}
}
