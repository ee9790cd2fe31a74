package eval

import (
	"math"
	"strings"
	"testing"
)

func parityFixture() []ParityPair {
	return []ParityPair{
		{Suite: "NPB", Program: "is", LoopID: 1, Truth: 1, RefLabel: 1, RefProba: 0.9, FastLabel: 1, FastProba: 0.90002},
		{Suite: "NPB", Program: "is", LoopID: 2, Truth: 0, RefLabel: 0, RefProba: 0.1, FastLabel: 0, FastProba: 0.1},
		{Suite: "Poly", Program: "jacobi", LoopID: 3, Truth: 1, RefLabel: 0, RefProba: 0.4, FastLabel: 0, FastProba: 0.4},
	}
}

func TestParityCleanReport(t *testing.T) {
	r := Parity(parityFixture())
	if r.N != 3 || len(r.Flips) != 0 {
		t.Fatalf("N=%d flips=%d, want 3 and 0", r.N, len(r.Flips))
	}
	if len(r.Suites) != 2 || r.Suites[0].Suite != "NPB" || r.Suites[1].Suite != "Poly" {
		t.Fatalf("suites not sorted/aggregated: %+v", r.Suites)
	}
	// NPB: both tiers 2/2. Poly: both tiers 0/1 (same miss) → drift 0.
	if r.Suites[0].RefAcc != 1 || r.Suites[0].FastAcc != 1 {
		t.Fatalf("NPB accuracies: %+v", r.Suites[0])
	}
	if r.Suites[1].RefAcc != 0 || r.Suites[1].FastAcc != 0 || r.Suites[1].AccDrift != 0 {
		t.Fatalf("Poly accuracies: %+v", r.Suites[1])
	}
	if math.Abs(r.MaxProbaDrift-2e-5) > 1e-12 {
		t.Fatalf("MaxProbaDrift = %v, want 2e-05", r.MaxProbaDrift)
	}
	if err := r.Check(0, 0); err != nil {
		t.Fatalf("clean report fails the zero-tolerance gate: %v", err)
	}
}

func TestParityFlipFailsGate(t *testing.T) {
	pairs := parityFixture()
	pairs[2].FastLabel = 1 // f32 flips the Poly loop (and happens to fix it)
	pairs[2].FastProba = 0.6
	r := Parity(pairs)
	if len(r.Flips) != 1 || r.Flips[0].LoopID != 3 {
		t.Fatalf("flips = %+v, want exactly loop 3", r.Flips)
	}
	// A flip is a parity violation even when it improves accuracy: the
	// gate defends equivalence, not quality.
	err := r.Check(1, 0) // generous accuracy tolerance, zero allowed flips
	if err == nil || !strings.Contains(err.Error(), "label flips") {
		t.Fatalf("flip not rejected: %v", err)
	}
	if err := r.Check(1, 1); err != nil {
		t.Fatalf("flip allowance not honored: %v", err)
	}
	// With flips allowed, the accuracy drift (Poly 0% → 100%) must trip
	// the zero-drift bound.
	err = r.Check(0, 1)
	if err == nil || !strings.Contains(err.Error(), "accuracy drift") {
		t.Fatalf("accuracy drift not rejected: %v", err)
	}
}

func TestParityRender(t *testing.T) {
	pairs := parityFixture()
	pairs[0].FastLabel = 0
	r := Parity(pairs)
	out := r.Render()
	for _, want := range []string{"suite", "NPB", "Poly", "max proba drift", "label flips (1):", "is loop 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	clean := Parity(parityFixture()).Render()
	if !strings.Contains(clean, "label flips: none") {
		t.Fatalf("clean render missing flip summary:\n%s", clean)
	}
}

// TestParityRenderTier: the report header, accuracy column and flip lines
// name the tier under comparison; an unset tier renders as int8.
func TestParityRenderTier(t *testing.T) {
	pairs := parityFixture()
	pairs[0].FastLabel = 0
	r := Parity(pairs)
	r.Tier = "int8"
	out := r.Render()
	for _, want := range []string{"int8 fast path vs float64 reference", "acc(int8)", "int8=0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tier render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "float32") {
		t.Fatalf("int8 render mentions float32:\n%s", out)
	}
	r.Tier = ""
	if def := r.Render(); def != out {
		t.Fatalf("unset tier render differs from int8:\n%s\nwant:\n%s", def, out)
	}
}

func TestParityEmpty(t *testing.T) {
	r := Parity(nil)
	if r.N != 0 || len(r.Suites) != 0 || len(r.Flips) != 0 {
		t.Fatalf("empty report not empty: %+v", r)
	}
	if err := r.Check(0, 0); err != nil {
		t.Fatalf("empty report fails gate: %v", err)
	}
}
