package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ParityPair is one loop predicted under both inference tiers: the
// float64 reference and the int8 fast path. Truth is the oracle label
// (1 = parallelizable) so the report can state per-suite accuracies in
// Table-3 terms, not just agreement.
type ParityPair struct {
	Suite   string
	Program string
	LoopID  int
	Truth   int

	RefLabel  int
	RefProba  float64
	FastLabel int
	FastProba float64
}

// Flip reports whether the fast path changed the predicted label.
func (p ParityPair) Flip() bool { return p.RefLabel != p.FastLabel }

// SuiteParity is one benchmark suite's accuracy under both tiers.
type SuiteParity struct {
	Suite string
	N     int
	// RefAcc and FastAcc are the Table-3 style per-suite accuracies of
	// the reference and fast tiers against the oracle labels.
	RefAcc, FastAcc float64
	// AccDrift is |FastAcc - RefAcc|: what the parity gate bounds.
	AccDrift float64
	Flips    int
}

// ParityReport is the accuracy-parity comparison over a corpus: per-suite
// accuracy drift, every label flip loop-by-loop, and the worst
// probability drift observed.
type ParityReport struct {
	// Tier names the fast tier under comparison; the reference is always
	// float64. Empty renders as "int8", the one fast tier served.
	Tier   string
	Suites []SuiteParity
	Flips  []ParityPair
	N      int
	// MaxAccDrift is the largest per-suite accuracy drift.
	MaxAccDrift float64
	// MaxProbaDrift is the largest |FastProba - RefProba| over all pairs.
	MaxProbaDrift float64
}

// Parity aggregates prediction pairs into a report. Suites are sorted by
// name; flips keep the caller's pair order.
func Parity(pairs []ParityPair) *ParityReport {
	type acc struct {
		n, refOK, fastOK, flips int
	}
	bySuite := map[string]*acc{}
	r := &ParityReport{N: len(pairs)}
	for _, p := range pairs {
		a := bySuite[p.Suite]
		if a == nil {
			a = &acc{}
			bySuite[p.Suite] = a
		}
		a.n++
		if p.RefLabel == p.Truth {
			a.refOK++
		}
		if p.FastLabel == p.Truth {
			a.fastOK++
		}
		if p.Flip() {
			a.flips++
			r.Flips = append(r.Flips, p)
		}
		if d := math.Abs(p.FastProba - p.RefProba); d > r.MaxProbaDrift {
			r.MaxProbaDrift = d
		}
	}
	names := make([]string, 0, len(bySuite))
	for s := range bySuite {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		a := bySuite[s]
		sp := SuiteParity{
			Suite:   s,
			N:       a.n,
			RefAcc:  float64(a.refOK) / float64(a.n),
			FastAcc: float64(a.fastOK) / float64(a.n),
			Flips:   a.flips,
		}
		sp.AccDrift = math.Abs(sp.FastAcc - sp.RefAcc)
		if sp.AccDrift > r.MaxAccDrift {
			r.MaxAccDrift = sp.AccDrift
		}
		r.Suites = append(r.Suites, sp)
	}
	return r
}

// Check enforces the parity gate: every suite's accuracy drift must stay
// within accTol (0 demands identical per-suite accuracy) and the total
// label flips must not exceed maxFlips. It returns nil when the fast
// path holds parity, or an error naming the first violated bound.
func (r *ParityReport) Check(accTol float64, maxFlips int) error {
	if len(r.Flips) > maxFlips {
		return fmt.Errorf("eval: parity gate failed: %d label flips exceed the allowed %d (first: %s loop %d)",
			len(r.Flips), maxFlips, r.Flips[0].Program, r.Flips[0].LoopID)
	}
	for _, s := range r.Suites {
		if s.AccDrift > accTol {
			return fmt.Errorf("eval: parity gate failed: suite %s accuracy drift %.4f exceeds tolerance %.4f (ref %.4f, fast %.4f)",
				s.Suite, s.AccDrift, accTol, s.RefAcc, s.FastAcc)
		}
	}
	return nil
}

// tier returns the fast tier's display name.
func (r *ParityReport) tier() string {
	if r.Tier == "" {
		return "int8"
	}
	return r.Tier
}

// Render formats the report: the per-suite accuracy table followed by
// every label flip, loop by loop. The header and accuracy column name the
// fast tier under comparison; the reference column is always float64.
func (r *ParityReport) Render() string {
	tier := r.tier()
	t := &Table{
		Title:   fmt.Sprintf("Accuracy parity over %d loops (%s fast path vs float64 reference)", r.N, tier),
		Headers: []string{"suite", "loops", "acc(f64)", "acc(" + tier + ")", "drift", "flips"},
	}
	for _, s := range r.Suites {
		t.AddRow(s.Suite, fmt.Sprint(s.N), Pct(s.RefAcc), Pct(s.FastAcc),
			fmt.Sprintf("%.4f", s.AccDrift), fmt.Sprint(s.Flips))
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "max proba drift: %.2e\n", r.MaxProbaDrift)
	if len(r.Flips) == 0 {
		b.WriteString("label flips: none\n")
		return b.String()
	}
	fmt.Fprintf(&b, "label flips (%d):\n", len(r.Flips))
	for _, p := range r.Flips {
		fmt.Fprintf(&b, "  %s/%s loop %d: f64=%d (p=%.4f) %s=%d (p=%.4f) truth=%d\n",
			p.Suite, p.Program, p.LoopID, p.RefLabel, p.RefProba, tier, p.FastLabel, p.FastProba, p.Truth)
	}
	return b.String()
}
