package core_test

import (
	"strings"
	"testing"

	"mvpar/internal/bench"
	"mvpar/internal/core"
	"mvpar/internal/obs"
)

// microExperiment keeps harness tests fast: three small apps, two
// variants, short training.
func microExperiment() core.ExperimentConfig {
	all := bench.Corpus()
	return core.ExperimentConfig{
		Variants:     2,
		PerClass:     0,
		Epochs:       4,
		LabelNoise:   0.05,
		Seed:         1,
		AppsOverride: []bench.App{all[3], all[4], all[9], all[12]}, // IS, EP, jacobi-2d, fib
	}
}

// newStudy builds a study over cfg or fails the test.
func newStudy(t *testing.T, cfg core.ExperimentConfig) *core.Study {
	t.Helper()
	s, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStudyBuildsAndTrainsOnce checks that Table III, Table IV, Figure 8
// and the pattern extension run from one study build the corpus dataset
// once and train two models: the MV-GNN the three share, and the 3-class
// pattern model.
func TestStudyBuildsAndTrainsOnce(t *testing.T) {
	count := func(name string) int64 {
		n, _ := obs.GetHistogram(name).Snapshot()
		return n
	}
	builds0 := count("mvpar_span_dataset_build_seconds")
	trains0 := count("mvpar_span_gnn_train_seconds")
	s := newStudy(t, microExperiment())
	if _, err := core.RunTable3(s); err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.RunTable4(s); err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunFigure8(s); err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunPatternExperiment(s); err != nil {
		t.Fatal(err)
	}
	if n := count("mvpar_span_dataset_build_seconds") - builds0; n != 1 {
		t.Fatalf("%d dataset builds, want 1", n)
	}
	if n := count("mvpar_span_gnn_train_seconds") - trains0; n != 2 {
		t.Fatalf("%d MV-GNN trainings, want 2 (the shared model and the pattern model)", n)
	}
}

func TestRunTable3MicroScale(t *testing.T) {
	res, err := core.RunTable3(newStudy(t, microExperiment()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suites) == 0 {
		t.Fatal("no suites evaluated")
	}
	wantModels := map[string]bool{
		"MV-GNN": true, "Static GNN": true, "SVM": true, "Decision Tree": true,
		"AdaBoost": true, "NCC": true, "Pluto": true, "AutoPar": true, "DiscoPoP": true,
	}
	for _, suite := range res.Suites {
		for m := range wantModels {
			acc, ok := res.Acc[suite][m]
			if !ok {
				t.Fatalf("suite %s missing model %s", suite, m)
			}
			if acc < 0 || acc > 1 {
				t.Fatalf("suite %s model %s accuracy %v", suite, m, acc)
			}
		}
	}
	for m := range wantModels {
		if _, ok := res.HeldOutAcc[m]; !ok {
			t.Fatalf("held-out accuracy missing for %s", m)
		}
	}
	out := core.RenderTable3(res)
	if !strings.Contains(out, "MV-GNN") || !strings.Contains(out, "DiscoPoP") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestRunTable4MicroScale(t *testing.T) {
	rows, mv, err := core.RunTable4(newStudy(t, microExperiment()))
	if err != nil {
		t.Fatal(err)
	}
	if mv == nil {
		t.Fatal("no model returned")
	}
	// The micro corpus includes IS and EP; their rows must be populated.
	byApp := map[string]core.Table4Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	if byApp["IS"].Loops != 25 || byApp["EP"].Loops != 10 {
		t.Fatalf("loop counts: IS=%d EP=%d", byApp["IS"].Loops, byApp["EP"].Loops)
	}
	for _, r := range rows {
		if r.Identified > r.Loops {
			t.Fatalf("%s: identified %d > loops %d", r.App, r.Identified, r.Loops)
		}
	}
}

func TestRunFigure7MicroScale(t *testing.T) {
	cfg := microExperiment()
	res, err := core.RunFigure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := cfg.Epochs + cfg.Epochs/4 + 1
	if len(res.Curve) != wantLen {
		t.Fatalf("curve length %d, want %d", len(res.Curve), wantLen)
	}
	// Loss must be finite and decrease overall during the view phase.
	if res.Curve[cfg.Epochs-1].Loss >= res.Curve[0].Loss {
		t.Fatalf("loss did not decrease: %v -> %v", res.Curve[0].Loss, res.Curve[cfg.Epochs-1].Loss)
	}
}

func TestRunFigure8MicroScale(t *testing.T) {
	res, err := core.RunFigure8(newStudy(t, microExperiment()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suites) == 0 {
		t.Fatal("no suites in figure 8")
	}
	for i := range res.Suites {
		if res.IMPn[i] < 0 || res.IMPs[i] < 0 {
			t.Fatalf("negative importance: %+v", res)
		}
	}
	out := core.RenderFigure8(res)
	if !strings.Contains(out, "IMP_n") {
		t.Fatal(out)
	}
}

func TestExperimentScalesDiffer(t *testing.T) {
	p, q := core.PaperScale(), core.QuickScale()
	if p.Variants <= q.Variants || p.Epochs <= q.Epochs {
		t.Fatalf("paper scale not larger than quick: %+v vs %+v", p, q)
	}
	if p.LabelNoise != q.LabelNoise {
		t.Fatal("scales should share the annotation-noise rate")
	}
}

func TestRunPatternExperimentMicroScale(t *testing.T) {
	res, err := core.RunPatternExperiment(newStudy(t, microExperiment()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.5 {
		t.Fatalf("pattern accuracy = %v, worse than chance-ish", res.Accuracy)
	}
	total := 0
	for i := range res.Confusion {
		for j := range res.Confusion[i] {
			total += res.Confusion[i][j]
		}
	}
	if total != res.Test {
		t.Fatalf("confusion total %d != test %d", total, res.Test)
	}
	out := core.RenderPatterns(res)
	if !strings.Contains(out, "DoALL") || !strings.Contains(out, "reduction") {
		t.Fatal(out)
	}
}

func TestRunRobustnessMicroScale(t *testing.T) {
	cfg := microExperiment()
	cfg.Epochs = 3
	res, err := core.RunRobustness(newStudy(t, cfg), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Folds) != 3 {
		t.Fatalf("folds = %d", len(res.Folds))
	}
	if res.Mean <= 0.5 {
		t.Fatalf("cross-validated accuracy %v barely above chance", res.Mean)
	}
	if res.Std < 0 || res.Std > 0.5 {
		t.Fatalf("std = %v", res.Std)
	}
}
