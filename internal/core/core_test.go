package core_test

import (
	"bytes"
	"strings"
	"testing"

	"mvpar/internal/bench"
	"mvpar/internal/core"
	"mvpar/internal/dataset"
	"mvpar/internal/gnn"
	"mvpar/internal/inst2vec"
	"mvpar/internal/nn"
	"mvpar/internal/tensor"
	"mvpar/internal/walks"
)

// tinyOptions keeps pipeline tests fast.
func tinyOptions() core.Options {
	return core.Options{
		Data: dataset.Config{
			Variants:   2,
			WalkParams: walks.Params{Length: 4, Gamma: 8},
			WalkLen:    4,
			EmbedCfg:   inst2vec.Config{Dim: 8, Window: 2, Negatives: 2, Epochs: 2, LR: 0.05, Seed: 1},
			Seed:       1,
		},
		Train: gnn.TrainConfig{Epochs: 6, LR: 0.005, Temperature: 0.5, ClipNorm: 5, Seed: 1},
		Seed:  1,
	}
}

// tinyApps is a small but class-balanced corpus.
func tinyApps() []bench.App {
	all := bench.Corpus()
	return []bench.App{all[3], all[4], all[9]} // IS, EP, jacobi-2d
}

func TestPipelineTrainAndClassify(t *testing.T) {
	pl := core.NewPipeline(tinyOptions())
	report, err := pl.TrainOn(tinyApps())
	if err != nil {
		t.Fatal(err)
	}
	if report.TrainRecords == 0 || report.TestRecords == 0 {
		t.Fatalf("report = %+v", report)
	}
	if report.TrainAcc < 0.7 {
		t.Fatalf("train accuracy = %v", report.TrainAcc)
	}
	// Staged MV-GNN training: Epochs view epochs + Epochs/4+1 fusion epochs.
	if len(report.Curve) != 6+6/4+1 {
		t.Fatalf("curve length = %d", len(report.Curve))
	}

	preds, err := pl.ClassifySource("user", `
float x[8]; float y[8]; float acc;
void main() {
    for (int i = 0; i < 8; i++) { y[i] = x[i] * 3.0; }
    for (int i = 1; i < 8; i++) { y[i] = y[i - 1] + x[i]; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("predictions = %d", len(preds))
	}
	if !preds[0].Oracle || preds[1].Oracle {
		t.Fatalf("oracle labels wrong: %+v", preds)
	}
	for _, p := range preds {
		if p.Proba < 0 || p.Proba > 1 {
			t.Fatalf("proba = %v", p.Proba)
		}
		if p.Func != "main" || p.Line == 0 {
			t.Fatalf("provenance missing: %+v", p)
		}
	}
}

func TestClassifyUntrainedFails(t *testing.T) {
	pl := core.NewPipeline(tinyOptions())
	if _, err := pl.ClassifySource("x", "void main() { }"); err == nil {
		t.Fatal("expected error for untrained pipeline")
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	pl := core.NewPipeline(tinyOptions())
	if _, err := pl.TrainOn(tinyApps()); err != nil {
		t.Fatal(err)
	}
	src := `
float q[8];
void main() { for (int i = 0; i < 8; i++) { q[i] = i; } }
`
	before, err := pl.ClassifySource("u", src)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := pl.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the live model, reload, predictions must be restored.
	for _, p := range pl.Model.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] = 0
		}
	}
	if err := pl.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	after, err := pl.ClassifySource("u", src)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i].Proba != after[i].Proba {
			t.Fatalf("prediction drifted after reload: %v vs %v", before[i].Proba, after[i].Proba)
		}
	}
}

func TestProfileSource(t *testing.T) {
	prog, res, err := core.ProfileSource("p", `
float a[8]; float s;
void main() {
    for (int i = 0; i < 8; i++) { s += a[i]; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	id := prog.LoopIDs()[0]
	if !res.Verdicts[id].Parallelizable || !res.Verdicts[id].HasReduction {
		t.Fatalf("verdict = %+v", res.Verdicts[id])
	}
}

func TestRunTable2MatchesPaper(t *testing.T) {
	rows, total := core.RunTable2()
	if total != 840 {
		t.Fatalf("total = %d, want 840", total)
	}
	want := map[string]int{"BT": 184, "SP": 252, "LU": 173, "IS": 25, "EP": 10,
		"CG": 32, "MG": 74, "FT": 37, "2mm": 17, "jacobi-2d": 10, "syr2k": 11,
		"trmm": 9, "fib": 2, "nqueens": 4}
	for _, r := range rows {
		if want[r.App] != r.Loops {
			t.Fatalf("%s: %d loops, want %d", r.App, r.Loops, want[r.App])
		}
	}
	out := core.RenderTable2(rows, total)
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "840") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestRunFigure1(t *testing.T) {
	r, err := core.RunFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if r.L1Distance < 0.2 {
		t.Fatalf("stencil/reduction signatures too close: %v", r.L1Distance)
	}
}

func TestRenderHelpersDoNotPanic(t *testing.T) {
	f7 := &core.Figure7Result{Curve: []gnn.EpochStats{{Epoch: 0, Loss: 1, Acc: 0.5}}}
	if s := core.RenderFigure7(f7); !strings.Contains(s, "Figure 7a") {
		t.Fatal(s)
	}
	f8 := &core.Figure8Result{Suites: []string{"NPB"}, IMPn: []float64{0.9}, IMPs: []float64{0.7}}
	if s := core.RenderFigure8(f8); !strings.Contains(s, "IMP_n") {
		t.Fatal(s)
	}
	t3 := &core.Table3Result{
		Acc:    map[string]map[string]float64{"NPB": {"MV-GNN": 0.926}},
		Suites: []string{"NPB"},
		Models: []string{"MV-GNN"},
	}
	if s := core.RenderTable3(t3); !strings.Contains(s, "92.6") {
		t.Fatal(s)
	}
	if s := core.RenderTable4([]core.Table4Row{{App: "BT", Loops: 184, Identified: 176}}); !strings.Contains(s, "176") {
		t.Fatal(s)
	}
}

// TestModelSaveLoadKeepsTrainedHead is the regression test for the lost
// head: training can select one view's own head over the fusion head,
// and a checkpoint must carry that choice, so a pipeline that loads it
// answers exactly like the one that trained it.
func TestModelSaveLoadKeepsTrainedHead(t *testing.T) {
	opts := tinyOptions()
	// This seed and epoch count train to the structural view's head.
	opts.Seed, opts.Train.Seed, opts.Train.Epochs = 10, 10, 1
	trained := core.NewPipeline(opts)
	if _, err := trained.TrainOn(tinyApps()); err != nil {
		t.Fatal(err)
	}
	if h := trained.Model.Head(); h != gnn.ViewStruct {
		t.Fatalf("fixture trained the %v head, want struct", h)
	}
	var buf bytes.Buffer
	if err := trained.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := core.NewPipeline(opts)
	loaded.Dataset = trained.Dataset
	if err := loaded.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	for _, rec := range trained.Dataset.Records {
		wc, wp := trained.Model.PredictWithProba(rec.Sample)
		gc, gp := loaded.Model.PredictWithProba(rec.Sample)
		if gc != wc || gp != wp {
			t.Fatalf("%s loop %d: loaded model answers (%d, %v), trained model (%d, %v)",
				rec.Meta.Program, rec.Meta.LoopID, gc, gp, wc, wp)
		}
	}
	want, err := trained.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("loaded fingerprint %s, trained %s", got.Fingerprint(), want.Fingerprint())
	}

	// A checkpoint with other weights and an out-of-range head is
	// rejected, and the loaded pipeline keeps answering as before.
	other := gnn.NewMVGNN(trained.Dataset.NodeDim, trained.Dataset.StructDim, 99)
	var bad bytes.Buffer
	head := nn.NewParam("mv.head", tensor.FromSlice(1, 1, []float64{3}))
	if err := nn.SaveParams(&bad, append(other.Params(), head)); err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadModel(&bad); err == nil {
		t.Fatal("LoadModel accepted head 3")
	}
	if h := loaded.Model.Head(); h != gnn.ViewStruct {
		t.Fatalf("rejected checkpoint left the %v head, want struct", h)
	}
	after, err := loaded.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	if after.Fingerprint() != want.Fingerprint() {
		t.Fatalf("rejected checkpoint moved the fingerprint to %s, want %s", after.Fingerprint(), want.Fingerprint())
	}
}
