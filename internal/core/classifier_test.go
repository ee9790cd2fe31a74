package core_test

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"mvpar/internal/bench"
	"mvpar/internal/core"
	"mvpar/internal/gnn"
	"mvpar/internal/minic"
	"mvpar/internal/obs"
)

// TestClassifierZeroEncoderRebuilds is the regression test for the
// per-call rebuild bug: classification used to reconstruct encoder state
// (the anonymous-walk space; and the inst2vec vocabulary whenever the
// embedding was not threaded through) on every call. The Classifier
// handle pins both, so after training, any number of classifications
// must leave the rebuild counters untouched.
func TestClassifierZeroEncoderRebuilds(t *testing.T) {
	vocab := obs.GetCounter("mvpar_inst2vec_vocab_builds_total")
	space := obs.GetCounter("mvpar_walks_space_builds_total")

	pl := core.NewPipeline(tinyOptions())
	v0, s0 := vocab.Value(), space.Value()
	if _, err := pl.TrainOnContext(context.Background(), tinyApps()); err != nil {
		t.Fatal(err)
	}
	if vocab.Value() != v0+1 || space.Value() != s0+1 {
		t.Fatalf("training built vocab %d times and space %d times, want 1 and 1",
			vocab.Value()-v0, space.Value()-s0)
	}

	cls, err := pl.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	src := `
float q[8];
void main() { for (int i = 0; i < 8; i++) { q[i] = i; } }
`
	first, err := cls.ClassifyContext(context.Background(), "u", src)
	if err != nil {
		t.Fatal(err)
	}
	v1, s1 := vocab.Value(), space.Value()
	second, err := cls.ClassifyContext(context.Background(), "u", src)
	if err != nil {
		t.Fatal(err)
	}
	if vocab.Value() != v1 {
		t.Fatalf("second classify rebuilt the inst2vec vocabulary %d times, want 0", vocab.Value()-v1)
	}
	if space.Value() != s1 {
		t.Fatalf("second classify rebuilt the walk space %d times, want 0", space.Value()-s1)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("repeat classification diverged:\n%+v\nvs\n%+v", first, second)
	}
}

// TestClassifierConcurrentMatchesSerial pins the replica free list: many
// goroutines classifying through one handle must each get exactly the
// serial result.
func TestClassifierConcurrentMatchesSerial(t *testing.T) {
	pl := core.NewPipeline(tinyOptions())
	if _, err := pl.TrainOnContext(context.Background(), tinyApps()); err != nil {
		t.Fatal(err)
	}
	src := `
float x[8]; float y[8];
void main() { for (int i = 0; i < 8; i++) { y[i] = x[i] + 1.0; } }
`
	cls, err := pl.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	want, err := cls.ClassifyContext(context.Background(), "u", src)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([][]core.LoopPrediction, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = cls.ClassifyContext(context.Background(), "u", src)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(results[w], want) {
			t.Fatalf("worker %d diverged from serial result:\n%+v\nvs\n%+v", w, results[w], want)
		}
	}
}

// TestClassifyProvenanceMatchesParse pins the loop provenance Classify
// reports, which comes from the lowered program's loop metadata: for
// every corpus program, each loop's Func and Line equal what the MiniC
// parser reports for that loop ID.
func TestClassifyProvenanceMatchesParse(t *testing.T) {
	pl := core.NewPipeline(tinyOptions())
	if _, err := pl.TrainOnContext(context.Background(), tinyApps()); err != nil {
		t.Fatal(err)
	}
	cls, err := pl.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range bench.Corpus() {
		preds, err := cls.ClassifyContext(context.Background(), app.Name, app.Source)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		loops := minic.MustParse(app.Name, app.Source).Loops()
		if len(preds) != len(loops) {
			t.Fatalf("%s: %d predictions for %d parsed loops", app.Name, len(preds), len(loops))
		}
		want := map[int]minic.LoopInfo{}
		for _, l := range loops {
			want[l.ID] = l
		}
		for _, p := range preds {
			w, ok := want[p.LoopID]
			if !ok || p.Func != w.Func || p.Line != w.Line {
				t.Fatalf("%s loop %d: provenance %s:%d, parser says %s:%d (found %v)",
					app.Name, p.LoopID, p.Func, p.Line, w.Func, w.Line, ok)
			}
		}
	}
}

// TestLoadModelRequantizesFastTiers: a handle taken after LoadModel must
// serve the loaded weights. LoadModel replaces the pipeline's model, so
// the handle must answer and fingerprint exactly like a
// pipeline that only ever saw the loaded checkpoint. float64 is the one
// served tier; the quantized engines' stale-cache check is
// gnn.TestLoadDropsQuantizedTiers.
func TestLoadModelRequantizesFastTiers(t *testing.T) {
	pl := core.NewPipeline(tinyOptions())
	if _, err := pl.TrainOnContext(context.Background(), tinyApps()); err != nil {
		t.Fatal(err)
	}
	otherOpts := tinyOptions()
	otherOpts.Seed = 2
	other := core.NewPipeline(otherOpts)
	if _, err := other.TrainOnContext(context.Background(), tinyApps()); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := other.SaveModel(&ckpt); err != nil {
		t.Fatal(err)
	}
	fresh := core.NewPipeline(tinyOptions())
	fresh.Dataset = pl.Dataset
	if err := fresh.LoadModel(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	before, err := pl.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	beforeFP := before.Fingerprint()
	if err := pl.LoadModel(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	t.Run(core.PrecisionFloat64, func(t *testing.T) {
		got, err := pl.Classifier()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Classifier()
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("fingerprint %s, fresh pipeline %s", got.Fingerprint(), want.Fingerprint())
		}
		if got.Fingerprint() == beforeFP {
			t.Fatalf("fingerprint %s did not change across LoadModel", got.Fingerprint())
		}
		for _, app := range tinyApps() {
			gp, err := got.ClassifyContext(context.Background(), app.Name, app.Source)
			if err != nil {
				t.Fatal(err)
			}
			wp, err := want.ClassifyContext(context.Background(), app.Name, app.Source)
			if err != nil {
				t.Fatal(err)
			}
			if len(gp) != len(wp) {
				t.Fatalf("%s: %d predictions, fresh pipeline %d", app.Name, len(gp), len(wp))
			}
			for i := range gp {
				if gp[i].Parallel != wp[i].Parallel || gp[i].Proba != wp[i].Proba {
					t.Fatalf("%s loop %d: (%v, %v) after LoadModel, fresh pipeline (%v, %v)",
						app.Name, gp[i].LoopID, gp[i].Parallel, gp[i].Proba, wp[i].Parallel, wp[i].Proba)
				}
			}
		}
	})
}

// TestLoadModelKeepsEarlierHandle: LoadModel adopts a fresh model and
// never writes to the live one, so a handle taken before the load keeps
// its fingerprint and its answers, on pooled replicas and on replicas
// it creates after the load alike.
func TestLoadModelKeepsEarlierHandle(t *testing.T) {
	pl := core.NewPipeline(tinyOptions())
	if _, err := pl.TrainOnContext(context.Background(), tinyApps()); err != nil {
		t.Fatal(err)
	}
	h, err := pl.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	fp := h.Fingerprint()
	want := map[string][]core.LoopPrediction{}
	for _, app := range tinyApps() {
		preds, err := h.ClassifyContext(context.Background(), app.Name, app.Source)
		if err != nil {
			t.Fatal(err)
		}
		want[app.Name] = preds
	}

	other := gnn.NewMVGNN(pl.Dataset.NodeDim, pl.Dataset.StructDim, 99)
	var ckpt bytes.Buffer
	if err := other.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	if err := pl.LoadModel(&ckpt); err != nil {
		t.Fatal(err)
	}
	if loaded, err := pl.Classifier(); err != nil {
		t.Fatal(err)
	} else if loaded.Fingerprint() == fp {
		t.Fatalf("LoadModel of other weights kept fingerprint %s", fp)
	}
	if got := h.Fingerprint(); got != fp {
		t.Fatalf("earlier handle's fingerprint moved from %s to %s across LoadModel", fp, got)
	}

	// Concurrent calls drain the one pooled replica and make the handle
	// build new ones after the load.
	var wg sync.WaitGroup
	for _, app := range tinyApps() {
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(app bench.App) {
				defer wg.Done()
				got, err := h.ClassifyContext(context.Background(), app.Name, app.Source)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[app.Name]) {
					t.Errorf("%s: earlier handle answers %+v after LoadModel, %+v before", app.Name, got, want[app.Name])
				}
			}(app)
		}
	}
	wg.Wait()
}
