package eval_test

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mvpar/internal/eval"
)

func TestConfusionMetrics(t *testing.T) {
	var c eval.Confusion
	// 3 TP, 1 FP, 4 TN, 2 FN.
	for i := 0; i < 3; i++ {
		c.Add(1, 1)
	}
	c.Add(1, 0)
	for i := 0; i < 4; i++ {
		c.Add(0, 0)
	}
	for i := 0; i < 2; i++ {
		c.Add(0, 1)
	}
	if c.Total() != 10 {
		t.Fatalf("total = %d", c.Total())
	}
	if math.Abs(c.Accuracy()-0.7) > 1e-12 {
		t.Fatalf("accuracy = %v", c.Accuracy())
	}
	if math.Abs(c.Precision()-0.75) > 1e-12 {
		t.Fatalf("precision = %v", c.Precision())
	}
	if math.Abs(c.Recall()-0.6) > 1e-12 {
		t.Fatalf("recall = %v", c.Recall())
	}
	wantF1 := 2 * 0.75 * 0.6 / (0.75 + 0.6)
	if math.Abs(c.F1()-wantF1) > 1e-12 {
		t.Fatalf("f1 = %v", c.F1())
	}
	if !strings.Contains(c.String(), "acc=70.0%") {
		t.Fatalf("String() = %q", c.String())
	}
}

func TestConfusionEmpty(t *testing.T) {
	var c eval.Confusion
	if c.Accuracy() != 0 || c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Fatal("empty confusion must report zeros")
	}
}

// Property: accuracy is always within [0,1] and equals 1 only when there
// are no errors.
func TestConfusionAccuracyProperty(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		c := eval.Confusion{TP: int(tp), FP: int(fp), TN: int(tn), FN: int(fn)}
		if c.Total() == 0 {
			return c.Accuracy() == 0
		}
		a := c.Accuracy()
		if a < 0 || a > 1 {
			return false
		}
		if a == 1 && (fp != 0 || fn != 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := eval.Table{Title: "T", Headers: []string{"Model", "Acc(%)"}}
	tb.AddRow("MV-GNN", "92.6")
	tb.AddRow("NCC", "87.3")
	out := tb.String()
	for _, want := range []string{"T\n", "Model", "Acc(%)", "MV-GNN", "92.6", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestPct(t *testing.T) {
	if eval.Pct(0.926) != "92.6" {
		t.Fatalf("Pct = %q", eval.Pct(0.926))
	}
}

func TestBars(t *testing.T) {
	out := eval.Bars("fig 8", []string{"IMP_n", "IMP_s"}, []float64{1, 0.5}, 10)
	if !strings.Contains(out, "IMP_n | ##########") {
		t.Fatalf("bars:\n%s", out)
	}
	if !strings.Contains(out, "IMP_s | #####") {
		t.Fatalf("bars:\n%s", out)
	}
}

func TestBarsZeroValues(t *testing.T) {
	out := eval.Bars("z", []string{"x"}, []float64{0}, 10)
	if !strings.Contains(out, "x | ") {
		t.Fatalf("bars:\n%s", out)
	}
}

func TestCurve(t *testing.T) {
	out := eval.Curve("loss", []float64{1.0, 0.5, 0.25, 0.1})
	if !strings.Contains(out, "first=1.0000") || !strings.Contains(out, "last=0.1000") {
		t.Fatalf("curve:\n%s", out)
	}
	if eval.Curve("e", nil) != "e: (empty)\n" {
		t.Fatal("empty curve rendering wrong")
	}
	// Constant series must not divide by zero.
	if out := eval.Curve("c", []float64{2, 2, 2}); !strings.Contains(out, "▁▁▁") {
		t.Fatalf("constant curve:\n%s", out)
	}
}
