package core_test

import (
	"reflect"
	"sync"
	"testing"

	"mvpar/internal/bench"
	"mvpar/internal/core"
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
	if _, err := pl.TrainOn(tinyApps()); err != nil {
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
	first, err := cls.Classify("u", src)
	if err != nil {
		t.Fatal(err)
	}
	v1, s1 := vocab.Value(), space.Value()
	second, err := cls.Classify("u", src)
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

	// The Pipeline convenience path shares the same handle semantics.
	v2, s2 := vocab.Value(), space.Value()
	viaPipeline, err := pl.ClassifySource("u", src)
	if err != nil {
		t.Fatal(err)
	}
	if vocab.Value() != v2 || space.Value() != s2 {
		t.Fatalf("Pipeline.ClassifySource rebuilt encoder state (vocab +%d, space +%d), want none",
			vocab.Value()-v2, space.Value()-s2)
	}
	if !reflect.DeepEqual(viaPipeline, first) {
		t.Fatalf("pipeline path diverged from classifier path:\n%+v\nvs\n%+v", viaPipeline, first)
	}
}

// TestClassifierConcurrentMatchesSerial pins the replica free list: many
// goroutines classifying through one handle must each get exactly the
// serial result.
func TestClassifierConcurrentMatchesSerial(t *testing.T) {
	pl := core.NewPipeline(tinyOptions())
	if _, err := pl.TrainOn(tinyApps()); err != nil {
		t.Fatal(err)
	}
	src := `
float x[8]; float y[8];
void main() { for (int i = 0; i < 8; i++) { y[i] = x[i] + 1.0; } }
`
	want, err := pl.ClassifySource("u", src)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := pl.Classifier()
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
			results[w], errs[w] = cls.Classify("u", src)
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
	if _, err := pl.TrainOn(tinyApps()); err != nil {
		t.Fatal(err)
	}
	cls, err := pl.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range bench.Corpus() {
		preds, err := cls.Classify(app.Name, app.Source)
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
