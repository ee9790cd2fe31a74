package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpar/internal/bench"
	"mvpar/internal/core"
	"mvpar/internal/dataset"
	"mvpar/internal/gnn"
	"mvpar/internal/inst2vec"
	"mvpar/internal/obs"
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
				code, resp, _ := tryClassify(ts.URL, name, src)
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
// model: warm-up flips readiness, /healthz reports the classifier's
// fingerprint, and a classified program is answered by the float64
// engine with the exact oracle labels the profiler derives.
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
	if s.ready.Load() {
		t.Fatal("server ready before warmup")
	}
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	if !s.ready.Load() {
		t.Fatal("server not ready after warmup")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK          bool   `json:"ok"`
		Generation  uint64 `json:"generation"`
		Fingerprint string `json:"fingerprint"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Generation != 1 || health.Fingerprint != cls.Fingerprint() {
		t.Fatalf("/healthz = %+v, want ok at generation 1 with fingerprint %s", health, cls.Fingerprint())
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
	if resp.Precision != core.PrecisionFloat64 {
		t.Fatalf("answered by the %q engine, want %s", resp.Precision, core.PrecisionFloat64)
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

// encodePanicOn makes the encode stage panic for program name until the
// test ends, and counts how often it fired.
func encodePanicOn(t *testing.T, name string) *atomic.Int64 {
	t.Helper()
	var fired atomic.Int64
	dataset.EncodeFaultHook = func(program string) {
		if program == name {
			fired.Add(1)
			panic("injected encoder bug")
		}
	}
	t.Cleanup(func() { dataset.EncodeFaultHook = nil })
	return &fired
}

// runaway runs for billions of interpreter steps: only a step budget or
// a deadline stops it.
const runaway = `
float a[4];
void main() {
    for (int i = 0; i < 1000000; i++) {
        for (int j = 0; j < 1000; j++) { a[0] = a[0] + 1.0; }
    }
}
`

// TestServerFailureClassesNameTheirStage drives every failure class
// through serve.Handler and the real classifier: each answers its status
// with no fallback, and its reasons name the stage that failed.
func TestServerFailureClassesNameTheirStage(t *testing.T) {
	pl := e2eTrained(t)
	budget := *pl
	budget.Opts.Data.MaxSteps = 10_000
	// A model built for wider node features than the encoder produces:
	// its first forward panics on the shape mismatch.
	mismatched := *pl
	mismatched.Model = gnn.NewMVGNN(pl.Dataset.NodeDim+1, pl.Dataset.StructDim, 1)
	encodePanicOn(t, "boomenc")
	// A program whose encode stage outlasts the request deadline.
	panicHook := dataset.EncodeFaultHook
	dataset.EncodeFaultHook = func(program string) {
		if program == "slowenc" {
			time.Sleep(500 * time.Millisecond)
		}
		panicHook(program)
	}

	for _, tc := range []struct {
		name    string
		pl      *core.Pipeline
		timeout time.Duration
		src     string
		code    int
		stage   string
	}{
		{"malformed", pl, 0, "void main() { for (int i = 0; i < 8; i++ { } }", http.StatusUnprocessableEntity, "parse"},
		{"budget", &budget, 0, runaway, http.StatusUnprocessableEntity, "profile"},
		{"deadline", pl, 200 * time.Millisecond, runaway, http.StatusGatewayTimeout, "profile"},
		{"slowenc", pl, 200 * time.Millisecond, e2eSources["map"], http.StatusGatewayTimeout, "encode"},
		{"boomenc", pl, 0, e2eSources["map"], http.StatusInternalServerError, "encode"},
		{"forward", &mismatched, 0, e2eSources["map"], http.StatusInternalServerError, "forward"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cls, err := tc.pl.Classifier()
			if err != nil {
				t.Fatal(err)
			}
			s, ts := newTestServer(t, cls, Config{RequestTimeout: tc.timeout})
			// The warm-up gate is not under test (the mismatched model
			// cannot pass it): open the classify route directly.
			s.ready.Store(true)
			code, ok, errResp := postClassify(t, ts.URL, tc.name, tc.src)
			if code != tc.code {
				t.Fatalf("status = %d (%+v %+v), want %d", code, ok, errResp, tc.code)
			}
			if want := "stage: " + tc.stage; !hasReason(errResp.Reasons, want) {
				t.Fatalf("reasons %q (error %q) do not name %q", errResp.Reasons, errResp.Error, want)
			}
		})
	}
}

// TestServerPanicFailsClosedOncePerRequest pins the fail-closed contract
// for a panicking pipeline: each request runs its classification exactly
// once (the weights are shared, so a panic the input caused would fire
// again on any retry) and answers a 500 that names the stage, and
// mvpar_http_panics_total counts every panic.
func TestServerPanicFailsClosedOncePerRequest(t *testing.T) {
	cls, err := e2eTrained(t).Classifier()
	if err != nil {
		t.Fatal(err)
	}
	fired := encodePanicOn(t, "dead")
	s, ts := newTestServer(t, cls, Config{})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	panicsBefore := obs.GetCounter("mvpar_http_panics_total").Value()
	const requests = 3
	for i := 1; i <= requests; i++ {
		code, _, errResp := postClassify(t, ts.URL, "dead", e2eSources["map"])
		if code != http.StatusInternalServerError || !hasReason(errResp.Reasons, "stage: encode") {
			t.Fatalf("classify with a panicking encoder = %d (%+v), want 500 naming stage: encode", code, errResp)
		}
		if n := fired.Load(); n != int64(i) {
			t.Fatalf("encode ran %d times for %d requests, want exactly once each", n, i)
		}
	}
	if n := obs.GetCounter("mvpar_http_panics_total").Value() - panicsBefore; n != requests {
		t.Fatalf("mvpar_http_panics_total grew by %d for %d panics", n, requests)
	}
	// The process and the model live on: a healthy program still answers.
	if code, _, errResp := postClassify(t, ts.URL, "alive", e2eSources["map"]); code != http.StatusOK {
		t.Fatalf("classify after the panics = %d (%+v), want 200", code, errResp)
	}
}
