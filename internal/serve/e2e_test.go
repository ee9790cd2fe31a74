package serve

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"mvpar/internal/bench"
	"mvpar/internal/core"
	"mvpar/internal/dataset"
	"mvpar/internal/gnn"
	"mvpar/internal/inst2vec"
	"mvpar/internal/walks"
)

// e2ePipeline trains one small real pipeline for the whole test file
// (training dominates the suite's wall time, so it runs once).
var (
	e2eOnce sync.Once
	e2ePl   *core.Pipeline
	e2eErr  error
)

func e2eTrained(t *testing.T) *core.Pipeline {
	t.Helper()
	e2eOnce.Do(func() {
		opts := core.Options{
			Data: dataset.Config{
				Variants:   2,
				WalkParams: walks.Params{Length: 4, Gamma: 8},
				WalkLen:    4,
				EmbedCfg:   inst2vec.Config{Dim: 8, Window: 2, Negatives: 2, Epochs: 2, LR: 0.05, Seed: 1},
				Seed:       1,
			},
			Train: gnn.TrainConfig{Epochs: 4, LR: 0.005, Temperature: 0.5, ClipNorm: 5, Seed: 1},
			Seed:  1,
		}
		all := bench.Corpus()
		apps := []bench.App{all[3], all[4], all[9]} // IS, EP, jacobi-2d: both classes
		e2ePl = core.NewPipeline(opts)
		_, e2eErr = e2ePl.TrainOn(apps)
	})
	if e2eErr != nil {
		t.Fatalf("training the e2e pipeline: %v", e2eErr)
	}
	return e2ePl
}

// e2eSources are the user programs the concurrency test replays: a
// parallel map, a loop-carried recurrence, and a reduction.
var e2eSources = map[string]string{
	"map": `
float x[8]; float y[8];
void main() { for (int i = 0; i < 8; i++) { y[i] = x[i] * 3.0; } }
`,
	"recurrence": `
float v[8];
void main() { for (int i = 1; i < 8; i++) { v[i] = v[i - 1] + 1.0; } }
`,
	"reduction": `
float a[8]; float s;
void main() { for (int i = 0; i < 8; i++) { s += a[i]; } }
`,
}

// TestServerConcurrentBitIdentical is the serving acceptance test: under
// concurrent load, every server response must be bit-identical
// to the serial Pipeline.ClassifySource result for the same program —
// same loops, same probabilities, bit for bit.
func TestServerConcurrentBitIdentical(t *testing.T) {
	pl := e2eTrained(t)

	// Serial ground truth first, through the plain pipeline path.
	serial := map[string]ClassifyResponse{}
	for name, src := range e2eSources {
		preds, err := pl.ClassifySource(name, src)
		if err != nil {
			t.Fatalf("serial ClassifySource(%s): %v", name, err)
		}
		if len(preds) == 0 {
			t.Fatalf("serial ClassifySource(%s) returned no predictions", name)
		}
		resp := toResponse(name, preds)
		resp.Generation = 1 // the server's initial generation
		serial[name] = resp
	}

	cls, err := pl.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	s := New(cls, Config{MaxQueue: 64})
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

	const rounds = 8 // 24 concurrent requests over the 3 programs
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
				code, resp := tryClassify(ts.URL, name, src)
				replies <- reply{name, code, resp}
			}(name, src)
		}
	}
	wg.Wait()
	close(replies)

	n := 0
	for got := range replies {
		n++
		if got.code != 200 {
			t.Fatalf("concurrent request %s = %d, want 200", got.name, got.code)
		}
		if !reflect.DeepEqual(got.resp, serial[got.name]) {
			t.Fatalf("concurrent response for %s diverged from serial ClassifySource:\n got %+v\nwant %+v",
				got.name, got.resp, serial[got.name])
		}
	}
	if n != rounds*len(e2eSources) {
		t.Fatalf("got %d replies, want %d", n, rounds*len(e2eSources))
	}
}

// TestServerRealWarmupAndOracle checks the server end to end on the real
// model: warm-up flips readiness and a classified program carries the
// exact oracle labels the profiler derives.
func TestServerRealWarmupAndOracle(t *testing.T) {
	pl := e2eTrained(t)
	cls, err := pl.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	s := New(cls, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	if s.Ready() {
		t.Fatal("server ready before warmup")
	}
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	if !s.Ready() {
		t.Fatal("server not ready after warmup")
	}

	code, resp, _ := postClassify(t, ts.URL, "user", `
float x[8]; float y[8]; float acc;
void main() {
    for (int i = 0; i < 8; i++) { y[i] = x[i] * 3.0; }
    for (int i = 1; i < 8; i++) { y[i] = y[i - 1] + x[i]; }
}
`)
	if code != 200 || len(resp.Predictions) != 2 {
		t.Fatalf("classify = %d with %d predictions, want 200 with 2", code, len(resp.Predictions))
	}
	if !resp.Predictions[0].Oracle || resp.Predictions[1].Oracle {
		t.Fatalf("oracle labels wrong: %+v", resp.Predictions)
	}
	for _, p := range resp.Predictions {
		if p.Func != "main" || p.Line == 0 {
			t.Fatalf("provenance missing: %+v", p)
		}
		if p.Proba < 0 || p.Proba > 1 {
			t.Fatalf("proba out of range: %+v", p)
		}
	}
}
