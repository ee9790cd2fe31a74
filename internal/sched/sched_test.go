package sched_test

import (
	"testing"

	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
	"mvpar/internal/sched"
)

func dagOf(t *testing.T, src string, loopIdx int) *sched.IterationDAG {
	t.Helper()
	prog := ir.MustLower(minic.MustParse("t", src))
	id := prog.LoopIDs()[loopIdx]
	dag, err := sched.BuildDAG(prog, "main", id, interp.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return dag
}

func TestDoAllDAGHasNoCrossIterationEdges(t *testing.T) {
	dag := dagOf(t, `
float a[16]; float b[16];
void main() {
    for (int i = 0; i < 16; i++) { a[i] = b[i] * 2.0; }
}
`, 0)
	if dag.Iterations != 16 {
		t.Fatalf("iterations = %d", dag.Iterations)
	}
	for i, ps := range dag.Preds {
		if len(ps) != 0 {
			t.Fatalf("iteration %d has predecessors %v in a DoALL loop", i, ps)
		}
	}
	r := dag.Simulate(4)
	if r.Speedup < 3.9 {
		t.Fatalf("DoALL speedup on 4 threads = %v, want ~4", r.Speedup)
	}
}

func TestRecurrenceDAGIsAChain(t *testing.T) {
	dag := dagOf(t, `
float a[16];
void main() {
    a[0] = 1.0;
    for (int i = 1; i < 16; i++) { a[i] = a[i - 1] * 0.5; }
}
`, 0)
	for i := 1; i < dag.Iterations; i++ {
		found := false
		for _, p := range dag.Preds[i] {
			if p == i-1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("iteration %d missing chain edge to %d (preds %v)", i, i-1, dag.Preds[i])
		}
	}
	r := dag.Simulate(8)
	if r.Speedup > 1.05 {
		t.Fatalf("recurrence speedup = %v, want ~1 (fully serial)", r.Speedup)
	}
	if cp := criticalPath(dag); cp != r.ParallelTime {
		t.Fatalf("critical path %d != serial makespan %d for a pure chain", cp, r.ParallelTime)
	}
}

func TestReductionDAGSerializesOnAccumulator(t *testing.T) {
	dag := dagOf(t, `
float a[16]; float s;
void main() {
    for (int i = 0; i < 16; i++) { s += a[i]; }
}
`, 0)
	// The accumulator serializes naive execution: speedup ~1. (OpenMP's
	// reduction clause transforms the code; the simulator models the loop
	// as written.)
	r := dag.Simulate(8)
	if r.Speedup > 1.2 {
		t.Fatalf("as-written reduction speedup = %v, want ~1", r.Speedup)
	}
}

func TestSimulateThreadScaling(t *testing.T) {
	dag := dagOf(t, `
float a[32]; float b[32];
void main() {
    for (int i = 0; i < 32; i++) {
        float t1 = b[i] * 2.0;
        float t2 = t1 + 1.0;
        a[i] = t2 * t1;
    }
}
`, 0)
	prev := 0.0
	for _, p := range []int{1, 2, 4, 8} {
		r := dag.Simulate(p)
		if r.Speedup+1e-9 < prev {
			t.Fatalf("speedup decreased with more threads: %v -> %v", prev, r.Speedup)
		}
		prev = r.Speedup
	}
	if one := dag.Simulate(1); one.Speedup < 0.99 || one.Speedup > 1.01 {
		t.Fatalf("1-thread speedup = %v, want 1", one.Speedup)
	}
}

func TestSpeedupBoundedByWorkOverCriticalPath(t *testing.T) {
	srcs := []string{
		`
float a[16]; float b[16];
void main() { for (int i = 0; i < 16; i++) { a[i] = b[i]; } }
`,
		`
float a[16];
void main() { a[0] = 1.0; for (int i = 1; i < 16; i++) { a[i] = a[i - 1]; } }
`,
		`
float a[16];
void main() { for (int i = 2; i < 16; i++) { a[i] = a[i - 2] + 1.0; } }
`,
	}
	for _, src := range srcs {
		dag := dagOf(t, src, 0)
		serial := int64(0)
		for _, w := range dag.Work {
			serial += w
		}
		bound := float64(serial) / float64(criticalPath(dag))
		r := dag.Simulate(16)
		if r.Speedup > bound+1e-9 {
			t.Fatalf("speedup %v exceeds work/critical-path bound %v", r.Speedup, bound)
		}
	}
}

func TestStride2RecurrenceGivesTwoChains(t *testing.T) {
	// a[i] = a[i-2]: two independent chains -> speedup ~2 regardless of
	// thread count beyond 2.
	dag := dagOf(t, `
float a[32];
void main() {
    a[0] = 1.0; a[1] = 2.0;
    for (int i = 2; i < 32; i++) { a[i] = a[i - 2] + 1.0; }
}
`, 0)
	r := dag.Simulate(8)
	if r.Speedup < 1.7 || r.Speedup > 2.2 {
		t.Fatalf("two-chain speedup = %v, want ~2", r.Speedup)
	}
}

func TestBuildDAGErrors(t *testing.T) {
	prog := ir.MustLower(minic.MustParse("t", `
float a[4]; int n;
void main() {
    for (int i = 0; i < n; i++) { a[i] = 1.0; }
}
`))
	// n == 0: the loop runs zero iterations but still enters/exits, so the
	// DAG exists with zero iterations.
	dag, err := sched.BuildDAG(prog, "main", prog.LoopIDs()[0], interp.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if dag.Iterations != 0 {
		t.Fatalf("iterations = %d", dag.Iterations)
	}
	if r := dag.Simulate(4); r.Speedup != 1 {
		t.Fatalf("empty loop speedup = %v", r.Speedup)
	}
	if _, err := sched.BuildDAG(prog, "main", 999, interp.Limits{}); err == nil {
		t.Fatal("expected error for unknown loop")
	}
}

// ESP (the Amdahl heuristic of Table I) should rank loops consistently
// with simulated speedup: a DoALL loop must both estimate and simulate
// higher than a recurrence.
func TestESPOrderingMatchesSimulation(t *testing.T) {
	type loopCase struct {
		src string
	}
	doall := `
float a[32]; float b[32];
void main() { for (int i = 0; i < 32; i++) { a[i] = b[i] * 2.0 + 1.0; } }
`
	rec := `
float a[32];
void main() { a[0] = 1.0; for (int i = 1; i < 32; i++) { a[i] = a[i - 1] * 0.5 + 1.0; } }
`
	_ = loopCase{}
	simOf := func(src string) float64 {
		return dagOf(t, src, 0).Simulate(8).Speedup
	}
	if simOf(doall) <= simOf(rec) {
		t.Fatalf("simulation does not separate DoALL (%v) from recurrence (%v)",
			simOf(doall), simOf(rec))
	}
}

// criticalPath returns the DAG's critical-path work: the longest chain of
// dependent iterations, the limit of any schedule's makespan.
func criticalPath(d *sched.IterationDAG) int64 {
	longest := make([]int64, d.Iterations)
	best := int64(0)
	for i := 0; i < d.Iterations; i++ { // Preds reference lower indices only
		l := int64(0)
		for _, p := range d.Preds[i] {
			if longest[p] > l {
				l = longest[p]
			}
		}
		longest[i] = l + d.Work[i]
		if longest[i] > best {
			best = longest[i]
		}
	}
	return best
}
