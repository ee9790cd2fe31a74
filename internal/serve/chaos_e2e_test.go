package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpar/internal/core"
	"mvpar/internal/nn"
	"mvpar/internal/obs"
	"mvpar/internal/tensor"
)

// chaosFaults is the fault source every generation's chaosStub shares:
// one seeded RNG behind a mutex, so a run's fault mix is reproducible,
// plus counts of the faults it actually injected.
type chaosFaults struct {
	mu     sync.Mutex
	rng    *rand.Rand
	panics atomic.Int64
	slows  atomic.Int64
}

// hit rolls the shared RNG once and reports whether it lands below p.
func (f *chaosFaults) hit(p float64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64() < p
}

// chaosStub is the generation-tagged model the chaos tests serve:
// every prediction names the generation that computed it (Func =
// "gen-<n>"), so a response whose body disagrees with its generation
// field is a cross-generation leak. With faults set, a classification
// (never the warm-up, so every swap candidate passes its gate) sleeps
// 2ms with p=0.25 and then panics with p=0.15.
type chaosStub struct {
	gen    uint64
	faults *chaosFaults
}

func (c *chaosStub) preds() []core.LoopPrediction {
	return []core.LoopPrediction{{
		LoopID: 1, Func: fmt.Sprintf("gen-%d", c.gen), Line: 2,
		Parallel: true, Proba: 0.9,
	}}
}

func (c *chaosStub) ClassifyContext(ctx context.Context, name, src string) ([]core.LoopPrediction, error) {
	if f := c.faults; f != nil && name != "warmup" {
		if f.hit(0.25) {
			f.slows.Add(1)
			t := time.NewTimer(2 * time.Millisecond)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
		if f.hit(0.15) {
			f.panics.Add(1)
			panic(fmt.Sprintf("gen-%d: injected replica panic", c.gen))
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.preds(), nil
}

func (c *chaosStub) Fingerprint() string { return fmt.Sprintf("chaos-fp-%d", c.gen) }

// TestChaosSwapStormUnderInjectedFaults is the chaos e2e: sustained
// client load over eight hot swaps while every generation's model
// panics and stalls at random. Invariants asserted on every single
// response:
//
//   - every injected panic fails exactly its own request: the 500s
//     number the stubs' panics, each names the stage that failed, and
//     mvpar_http_panics_total counts them all; every other response is
//     200 (or 429 load shed);
//   - no cross-generation predictions: the prediction body names the
//     generation that computed it, which must equal the response's
//     generation field AND lie within [generation before send,
//     generation after receive] — i.e. a model that was live while the
//     request was in flight.
//
// CI runs this under -race with -count=2 (the `chaos` job).
func TestChaosSwapStormUnderInjectedFaults(t *testing.T) {
	faultSrc := &chaosFaults{rng: rand.New(rand.NewSource(7))}
	var genSeq atomic.Uint64
	genSeq.Store(1)
	loader := func(context.Context) (Inference, error) {
		return &chaosStub{gen: genSeq.Add(1), faults: faultSrc}, nil
	}
	s, ts := newTestServer(t, &chaosStub{gen: 1, faults: faultSrc}, Config{
		MaxQueue: 256,
		Loader:   loader,
	})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	panicsBefore := obs.GetCounter("mvpar_http_panics_total").Value()

	const (
		clients    = 8
		perClient  = 40
		swapStorms = 2 // concurrent reloaders...
		swapsEach  = 4 // ...each swapping this many times: 8 swaps total
	)
	var wg sync.WaitGroup
	errs := make(chan string, clients*perClient+swapStorms*swapsEach)
	var failed atomic.Int64 // 500s that named their stage

	// The swap storm: concurrent reloads serialized by the server.
	swapsDone := make(chan struct{})
	var swapOK atomic.Int64
	var swapWG sync.WaitGroup
	for i := 0; i < swapStorms; i++ {
		swapWG.Add(1)
		go func() {
			defer swapWG.Done()
			for j := 0; j < swapsEach; j++ {
				if _, err := s.Reload(context.Background()); err != nil {
					errs <- fmt.Sprintf("reload: %v", err)
					return
				}
				swapOK.Add(1)
				time.Sleep(2 * time.Millisecond) // let traffic land on the new generation
			}
		}()
	}
	go func() { swapWG.Wait(); close(swapsDone) }()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				before := s.Generation()
				code, resp, errResp := tryClassify(ts.URL, fmt.Sprintf("c%d-r%d", c, i), stubSource)
				after := s.Generation()
				switch code {
				case 200:
					if len(resp.Predictions) != 1 {
						errs <- fmt.Sprintf("200 with %d predictions", len(resp.Predictions))
						continue
					}
					// Body and envelope must agree on the producing model.
					want := fmt.Sprintf("gen-%d", resp.Generation)
					if resp.Predictions[0].Func != want {
						errs <- fmt.Sprintf("cross-generation leak: envelope %d, body %q",
							resp.Generation, resp.Predictions[0].Func)
					}
					// And that model must have been live during the request.
					if resp.Generation < before || resp.Generation > after {
						errs <- fmt.Sprintf("generation %d outside live window [%d,%d]",
							resp.Generation, before, after)
					}
				case 429:
					// Load shed is an allowed answer under overload.
				case 500:
					if !hasReason(errResp.Reasons, "stage: ") {
						errs <- fmt.Sprintf("500 without a stage: %+v", errResp)
						continue
					}
					failed.Add(1)
				default:
					errs <- fmt.Sprintf("request failed with %d", code)
				}
			}
		}(c)
	}
	wg.Wait()
	<-swapsDone
	close(errs)

	var failures []string
	for e := range errs {
		failures = append(failures, e)
	}
	if len(failures) > 0 {
		t.Fatalf("%d invariant violations under chaos, first few: %v",
			len(failures), failures[:min(5, len(failures))])
	}
	if n := swapOK.Load(); n != swapStorms*swapsEach {
		t.Fatalf("only %d/%d hot swaps succeeded", n, swapStorms*swapsEach)
	}
	if got, want := s.Generation(), uint64(1+swapStorms*swapsEach); got != want {
		t.Fatalf("final generation = %d, want %d", got, want)
	}
	// The run must actually have been chaotic, and every panic must have
	// failed exactly its own request.
	panics := faultSrc.panics.Load()
	if panics == 0 || faultSrc.slows.Load() == 0 {
		t.Fatalf("stubs injected %d panics and %d slowdowns; the storm tested nothing",
			panics, faultSrc.slows.Load())
	}
	if n := failed.Load(); n != panics {
		t.Fatalf("%d 500s naming a stage for %d injected panics", n, panics)
	}
	if n := obs.GetCounter("mvpar_http_panics_total").Value() - panicsBefore; n != panics {
		t.Fatalf("mvpar_http_panics_total grew by %d for %d injected panics", n, panics)
	}
}

// TestChaosCorruptCheckpointRollsBack runs the real checkpoint path
// under injected corruption: the loader serializes genuine nn params,
// flips a payload byte while corrupt is set, and the CRC-checked load
// must reject it — the reload rolls back and the old generation keeps
// serving. Clearing corrupt makes the same loader succeed.
func TestChaosCorruptCheckpointRollsBack(t *testing.T) {
	var corrupt atomic.Bool
	corrupt.Store(true)

	params := []*nn.Param{nn.NewParam("w", &tensor.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}})}
	var checkpoint bytes.Buffer
	if err := nn.SaveParams(&checkpoint, params); err != nil {
		t.Fatal(err)
	}

	var genSeq atomic.Uint64
	genSeq.Store(1)
	loader := func(context.Context) (Inference, error) {
		data := append([]byte(nil), checkpoint.Bytes()...)
		if corrupt.Load() {
			data[len(data)-1] ^= 0xFF // corrupt the gob payload tail
		}
		fresh := []*nn.Param{nn.NewParam("w", tensor.New(2, 2))}
		if err := nn.LoadParams(bytes.NewReader(data), fresh); err != nil {
			return nil, err
		}
		return &chaosStub{gen: genSeq.Add(1)}, nil
	}
	s, ts := newTestServer(t, &chaosStub{gen: 1}, Config{Loader: loader})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}

	code, body := postReload(t, ts.URL)
	if code != 500 || !strings.Contains(body, "rolled back") {
		t.Fatalf("reload of corrupted checkpoint = %d %s, want 500 rollback", code, body)
	}
	if s.Generation() != 1 {
		t.Fatalf("generation after corrupt reload = %d, want 1", s.Generation())
	}
	if code, ok, _ := postClassify(t, ts.URL, "p", stubSource); code != 200 ||
		ok.Generation != 1 || ok.Predictions[0].Func != "gen-1" {
		t.Fatalf("classify after rollback = %d %+v, want the old model serving", code, ok)
	}

	// Without the corruption the same loader hot-swaps fine.
	corrupt.Store(false)
	if code, body := postReload(t, ts.URL); code != 200 {
		t.Fatalf("clean reload = %d %s, want 200", code, body)
	}
	if code, ok, _ := postClassify(t, ts.URL, "p2", stubSource); code != 200 || ok.Generation != 2 {
		t.Fatalf("classify after clean swap = %d %+v, want generation 2", code, ok)
	}
}
