package deps_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"mvpar/internal/deps"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
)

// analyze profiles the program's main and returns the result.
func analyze(t *testing.T, src string) (*deps.Result, *ir.Program) {
	t.Helper()
	prog := ir.MustLower(minic.MustParse("t", src))
	res, _, err := deps.Analyze(prog, "main", interp.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return res, prog
}

// verdictOfFirstLoop returns the verdict of the program's first loop.
func verdictOfFirstLoop(t *testing.T, src string) deps.Verdict {
	t.Helper()
	res, prog := analyze(t, src)
	ids := prog.LoopIDs()
	if len(ids) == 0 {
		t.Fatal("no loops in program")
	}
	return res.Verdicts[ids[0]]
}

func TestDoAllLoopParallelizable(t *testing.T) {
	v := verdictOfFirstLoop(t, `
float a[16];
float b[16];
void main() {
    for (int i = 0; i < 16; i++) { a[i] = b[i] + 1.0; }
}
`)
	if !v.Parallelizable || v.HasReduction {
		t.Fatalf("verdict = %+v, want parallelizable without reduction", v)
	}
}

func TestSumReductionParallelizable(t *testing.T) {
	v := verdictOfFirstLoop(t, `
float a[16];
float s;
void main() {
    for (int i = 0; i < 16; i++) { s += a[i]; }
}
`)
	if !v.Parallelizable || !v.HasReduction {
		t.Fatalf("verdict = %+v, want parallelizable with reduction", v)
	}
}

func TestProductReductionParallelizable(t *testing.T) {
	v := verdictOfFirstLoop(t, `
float p;
void main() {
    p = 1.0;
    for (int i = 0; i < 8; i++) { p *= 1.5; }
}
`)
	if !v.Parallelizable || !v.HasReduction {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestTrueRecurrenceBlocked(t *testing.T) {
	v := verdictOfFirstLoop(t, `
float a[16];
void main() {
    a[0] = 1.0;
    for (int i = 1; i < 16; i++) { a[i] = a[i - 1] * 2.0; }
}
`)
	if v.Parallelizable {
		t.Fatalf("recurrence must block: %+v", v)
	}
}

func TestInPlaceStencilBlocked(t *testing.T) {
	v := verdictOfFirstLoop(t, `
float a[16];
void main() {
    for (int i = 1; i < 15; i++) { a[i] = a[i - 1] + a[i + 1]; }
}
`)
	if v.Parallelizable {
		t.Fatalf("in-place stencil must block: %+v", v)
	}
}

func TestOutOfPlaceStencilParallelizable(t *testing.T) {
	v := verdictOfFirstLoop(t, `
float a[16];
float b[16];
void main() {
    for (int i = 1; i < 15; i++) { b[i] = a[i - 1] + a[i] + a[i + 1]; }
}
`)
	if !v.Parallelizable {
		t.Fatalf("jacobi-style stencil must be parallelizable: %+v", v)
	}
}

func TestPrivatizableScalarParallelizable(t *testing.T) {
	v := verdictOfFirstLoop(t, `
float a[16];
float b[16];
void main() {
    float t;
    for (int i = 0; i < 16; i++) {
        t = a[i] * 2.0;
        b[i] = t + 1.0;
    }
}
`)
	if !v.Parallelizable {
		t.Fatalf("privatizable temp must not block: %+v", v)
	}
}

func TestExposedScalarReadBlocked(t *testing.T) {
	// t carries a value from the previous iteration before being rewritten.
	v := verdictOfFirstLoop(t, `
float a[16];
float b[16];
void main() {
    float t = 0.0;
    for (int i = 0; i < 16; i++) {
        b[i] = t;
        t = a[i];
    }
}
`)
	if v.Parallelizable {
		t.Fatalf("exposed read then write must block (loop-carried WAR/RAW): %+v", v)
	}
}

func TestPoisonedReductionBlocked(t *testing.T) {
	// Reading the running sum makes the reduction exemption invalid.
	v := verdictOfFirstLoop(t, `
float a[16];
float b[16];
float s;
void main() {
    for (int i = 0; i < 16; i++) {
        s += a[i];
        b[i] = s;
    }
}
`)
	if v.Parallelizable {
		t.Fatalf("prefix-sum must block: %+v", v)
	}
}

func TestIndirectNonReductionUpdateBlocked(t *testing.T) {
	v := verdictOfFirstLoop(t, `
float a[8];
int idx[8];
void main() {
    idx[0] = 1; idx[1] = 1; idx[2] = 2; idx[3] = 3;
    idx[4] = 3; idx[5] = 5; idx[6] = 6; idx[7] = 1;
    for (int i = 0; i < 8; i++) {
        a[idx[i]] = a[idx[i]] * 2.0 + 1.0;
    }
}
`)
	if v.Parallelizable {
		t.Fatalf("colliding indirect update must block: %+v", v)
	}
}

func TestHistogramReductionParallelizable(t *testing.T) {
	// a[idx[i]] += 1 is a recognized (atomic-style) sum reduction even with
	// colliding indices.
	v := verdictOfFirstLoop(t, `
float a[8];
int idx[8];
void main() {
    idx[0] = 1; idx[1] = 1; idx[2] = 2; idx[3] = 3;
    idx[4] = 3; idx[5] = 5; idx[6] = 6; idx[7] = 1;
    for (int i = 0; i < 8; i++) {
        a[idx[i]] += 1.0;
    }
}
`)
	if !v.Parallelizable || !v.HasReduction {
		t.Fatalf("histogram += must be a reduction: %+v", v)
	}
}

func TestCollidingIndirectWriteBlocked(t *testing.T) {
	v := verdictOfFirstLoop(t, `
float a[8];
int idx[8];
void main() {
    idx[0] = 1; idx[1] = 1; idx[2] = 2; idx[3] = 3;
    idx[4] = 3; idx[5] = 5; idx[6] = 6; idx[7] = 1;
    for (int i = 0; i < 8; i++) {
        a[idx[i]] = i;
    }
}
`)
	if v.Parallelizable {
		t.Fatalf("colliding indirect writes (carried WAW on array) must block: %+v", v)
	}
}

func TestDisjointIndirectWriteParallelizable(t *testing.T) {
	v := verdictOfFirstLoop(t, `
float a[8];
int idx[8];
void main() {
    for (int i = 0; i < 8; i++) { idx[i] = 7 - i; }
    for (int i = 0; i < 8; i++) { a[idx[i]] = i; }
}
`)
	res, prog := analyze(t, `
float a[8];
int idx[8];
void main() {
    for (int i = 0; i < 8; i++) { idx[i] = 7 - i; }
    for (int i = 0; i < 8; i++) { a[idx[i]] = i; }
}
`)
	_ = v
	ids := prog.LoopIDs()
	second := res.Verdicts[ids[1]]
	if !second.Parallelizable {
		t.Fatalf("permutation scatter must be parallelizable: %+v", second)
	}
}

func TestWhileLoopBlocked(t *testing.T) {
	res, prog := analyze(t, `
int n = 10;
int x;
void main() {
    while (x < n) { x++; }
}
`)
	v := res.Verdicts[prog.LoopIDs()[0]]
	if v.Parallelizable {
		t.Fatalf("while counter loop must block (condition reads the accumulator): %+v", v)
	}
}

func TestNestedLoopsIndependentVerdicts(t *testing.T) {
	res, prog := analyze(t, `
float A[8][8];
float y[8];
void main() {
    for (int i = 0; i < 8; i++) {
        float s = 0.0;
        for (int j = 0; j < 8; j++) {
            s += A[i][j];
        }
        y[i] = s;
    }
}
`)
	ids := prog.LoopIDs()
	outer, inner := res.Verdicts[ids[0]], res.Verdicts[ids[1]]
	if !outer.Parallelizable {
		t.Fatalf("outer loop must be parallelizable: %+v", outer)
	}
	if outer.HasReduction {
		t.Fatalf("outer loop is not itself a reduction: %+v", outer)
	}
	if !inner.Parallelizable || !inner.HasReduction {
		t.Fatalf("inner loop must be a reduction: %+v", inner)
	}
}

func TestCalledFunctionLocalsDoNotAlias(t *testing.T) {
	res, prog := analyze(t, `
float a[8];
float b[8];
float square(float x) {
    float tmp = x * x;
    return tmp;
}
void main() {
    for (int i = 0; i < 8; i++) { b[i] = square(a[i]); }
}
`)
	v := res.Verdicts[prog.LoopIDs()[0]]
	if !v.Parallelizable {
		t.Fatalf("per-call locals must not create carried deps: %+v", v)
	}
}

func TestSequentialDependentCallsBlocked(t *testing.T) {
	res, prog := analyze(t, `
float acc;
float bump(float x) {
    acc = acc + x;
    return acc;
}
float out[8];
void main() {
    for (int i = 0; i < 8; i++) { out[i] = bump(1.0); }
}
`)
	v := res.Verdicts[prog.LoopIDs()[0]]
	if v.Parallelizable {
		t.Fatalf("global state threaded through calls must block: %+v", v)
	}
}

func TestEdgesRecorded(t *testing.T) {
	res, _ := analyze(t, `
float a[8];
float s;
void main() {
    for (int i = 0; i < 8; i++) { a[i] = i; }
    for (int i = 0; i < 8; i++) { s += a[i]; }
}
`)
	var sawIndependentRAW, sawCarriedRAW, sawReduction bool
	for _, e := range res.Edges {
		if e.Kind == deps.RAW && !e.Carried {
			sawIndependentRAW = true
		}
		if e.Kind == deps.RAW && e.Carried {
			sawCarriedRAW = true
			if e.Reduction {
				sawReduction = true
			}
		}
	}
	if !sawIndependentRAW {
		t.Fatal("no loop-independent RAW edge recorded (producer->consumer across loops)")
	}
	if !sawCarriedRAW || !sawReduction {
		t.Fatalf("carried/reduction RAW edges missing (carried=%v red=%v)", sawCarriedRAW, sawReduction)
	}
	// Edges must be sorted and unique.
	for i := 1; i < len(res.Edges); i++ {
		a, b := res.Edges[i-1], res.Edges[i]
		if a == b {
			t.Fatal("duplicate edge")
		}
	}
}

func TestNeverExecutedLoopDefaultsParallelizable(t *testing.T) {
	res, prog := analyze(t, `
float a[4];
int n;
void main() {
    for (int i = 0; i < n; i++) { a[i] = a[i - 1]; }
}
`)
	// n == 0: body never runs, so no dependence evidence exists.
	v := res.Verdicts[prog.LoopIDs()[0]]
	if !v.Parallelizable {
		t.Fatalf("unexecuted loop should default to parallelizable (no evidence): %+v", v)
	}
}

func TestIterationStatsExposed(t *testing.T) {
	res, prog := analyze(t, `
float a[6];
void main() {
    for (int r = 0; r < 3; r++) {
        for (int i = 0; i < 6; i++) { a[i] = i; }
    }
}
`)
	ids := prog.LoopIDs()
	if res.Iterations[ids[0]] != 3 || res.Iterations[ids[1]] != 18 {
		t.Fatalf("iterations = %v", res.Iterations)
	}
	if res.Instances[ids[0]] != 1 || res.Instances[ids[1]] != 3 {
		t.Fatalf("instances = %v", res.Instances)
	}
}

func TestTriangularLoopParallelizable(t *testing.T) {
	res, prog := analyze(t, `
float A[8][8];
void main() {
    for (int i = 0; i < 8; i++) {
        for (int j = 0; j <= i; j++) {
            A[i][j] = i + j;
        }
    }
}
`)
	for _, id := range prog.LoopIDs() {
		if !res.Verdicts[id].Parallelizable {
			t.Fatalf("triangular independent writes must be parallelizable: %+v", res.Verdicts[id])
		}
	}
}

func TestWavefrontBlocked(t *testing.T) {
	res, prog := analyze(t, `
float A[8][8];
void main() {
    for (int i = 1; i < 8; i++) {
        for (int j = 1; j < 8; j++) {
            A[i][j] = A[i - 1][j] + A[i][j - 1];
        }
    }
}
`)
	ids := prog.LoopIDs()
	if res.Verdicts[ids[0]].Parallelizable {
		t.Fatal("outer wavefront loop must block (row dependence)")
	}
	if res.Verdicts[ids[1]].Parallelizable {
		t.Fatal("inner wavefront loop must block (column dependence)")
	}
}

func TestCarriedDistances(t *testing.T) {
	res, _ := analyze(t, `
float a[16];
void main() {
    a[0] = 1.0; a[1] = 1.0; a[2] = 1.0;
    for (int i = 3; i < 16; i++) { a[i] = a[i - 3] + 1.0; }
}
`)
	foundDist3 := false
	for _, e := range res.Edges {
		if e.Kind == deps.RAW && e.Carried && e.Distance == 3 {
			foundDist3 = true
		}
		if e.Carried && e.Distance == 0 {
			t.Fatalf("carried edge with zero distance: %+v", e)
		}
		if !e.Carried && e.Distance != 0 {
			t.Fatalf("independent edge with distance: %+v", e)
		}
	}
	if !foundDist3 {
		t.Fatal("stride-3 recurrence must produce a carried RAW at distance 3")
	}
}

func TestAdjacentDistanceIsOne(t *testing.T) {
	res, _ := analyze(t, `
float a[16];
void main() {
    a[0] = 1.0;
    for (int i = 1; i < 16; i++) { a[i] = a[i - 1] + 1.0; }
}
`)
	for _, e := range res.Edges {
		if e.Kind == deps.RAW && e.Carried && !e.Reduction && e.Distance != 1 {
			t.Fatalf("first-order recurrence distance = %d, want 1 (%+v)", e.Distance, e)
		}
	}
}

// A loop carried at loop-stack depth >= 65 (reached through recursion)
// must still be blocked by its exposed-read WAR: the per-level exposure
// mask only covers 64 levels, and deeper levels must count as exposed.
func TestDeepLoopStackExposedReadBlocked(t *testing.T) {
	for _, depth := range []int{2, 64, 65, 70} {
		src := fmt.Sprintf(`
float a[8];
void f(int d) {
  int n = 4;
  if (d < %[1]d) { n = 1; }
  for (int i = 0; i < n; i++) {
    if (d < %[1]d) { f(d + 1); } else { a[i] = a[i + 1] + 1.0; }
  }
}
void main() { f(1); }
`, depth)
		v := verdictOfFirstLoop(t, src)
		if v.Parallelizable || !v.Detail.LCWarBad {
			t.Errorf("depth %d: verdict %+v, want a blocking exposed-read WAR", depth, v)
		}
	}
}

// Profiling allocates per new address and per loop event, never per
// access: a repeated write to an already-seen address in the same
// iteration allocates nothing.
func TestRepeatedWriteAllocsZero(t *testing.T) {
	an := deps.NewAnalyzer()
	an.LoopEnter(1, 1, 0, false)
	an.LoopIter(1, 1, 1)
	acc := &interp.Access{Addr: 7, Write: true, Array: true, StmtID: 3,
		Frames: []interp.LoopFrame{{ID: 1, Instance: 1, Iter: 1}}}
	an.Access(acc)
	an.Access(acc)
	if a := testing.AllocsPerRun(100, func() { an.Access(acc) }); a != 0 {
		t.Fatalf("repeated write allocates %v times per access", a)
	}

	// A steady loop body: every iteration reads two touched addresses
	// twice each, then writes both. The reads reuse the chain nodes the
	// previous writes freed, and the loop-stack snapshots come from the
	// arena, so after warm-up an iteration allocates less than once.
	frames := []interp.LoopFrame{{ID: 1, Instance: 1, Iter: 1}}
	iter := func() {
		frames[0].Iter++
		an.LoopIter(1, 1, frames[0].Iter)
		for _, write := range []bool{false, false, true} {
			for _, addr := range []uint64{7, 8} {
				an.Access(&interp.Access{Addr: addr, Write: write, Array: true, StmtID: 4, Frames: frames})
			}
		}
	}
	for range 100 {
		iter()
	}
	if a := testing.AllocsPerRun(1000, iter); a >= 1 {
		t.Fatalf("a read-read-write iteration allocates %v times", a)
	}
}

// A loop whose control variable is a local of a recursive function gets a
// fresh control address in every call, each marked at that instance's
// LoopEnter; accesses to it must be excluded from the loop's blocking
// evidence in every instance, including instances nested in an outer
// instance of the same loop. Statement IDs: 3 is the init i = 0, 4 the
// condition i < 2, 7 the post i = i + 1 (lowered as a sum reduction).
// Parameters are bound untraced, so d contributes no edge.
func TestRecursiveLocalControlVariable(t *testing.T) {
	res, prog := analyze(t, `
void f(int d) {
  int i;
  for (i = 0; i < 2; i = i + 1) {
    if (d < 1) { f(d + 1); }
  }
}
void main() { f(0); }
`)
	loop := prog.LoopIDs()[0]
	if loop != 1 || prog.Loops[loop].CtrlVar != "i" {
		t.Fatalf("loop %d with control %q, want loop 1 controlled by i", loop, prog.Loops[loop].CtrlVar)
	}
	// f(0)'s loop runs two iterations and calls f(1) in each: three
	// instances of two iterations, each over its own i.
	if res.Instances[loop] != 3 || res.Iterations[loop] != 6 {
		t.Fatalf("instances %d, iterations %d, want 3 and 6", res.Instances[loop], res.Iterations[loop])
	}
	want := []deps.Edge{
		{Kind: deps.RAW, SrcStmt: 3, DstStmt: 4},                                         // init -> first test
		{Kind: deps.RAW, SrcStmt: 3, DstStmt: 7},                                         // init -> first increment
		{Kind: deps.WAW, SrcStmt: 3, DstStmt: 7},                                         // init, then increment
		{Kind: deps.WAR, SrcStmt: 4, DstStmt: 7},                                         // test, then same-iteration increment
		{Kind: deps.RAW, SrcStmt: 7, DstStmt: 4, Carried: true, Carrier: 1, Distance: 1}, // increment -> next test
		{Kind: deps.RAW, SrcStmt: 7, DstStmt: 7, Carried: true, Carrier: 1, Reduction: true, Distance: 1},
		{Kind: deps.WAR, SrcStmt: 7, DstStmt: 7}, // read, then write of one increment
		{Kind: deps.WAW, SrcStmt: 7, DstStmt: 7, Carried: true, Carrier: 1, Reduction: true, Distance: 1},
	}
	if !reflect.DeepEqual(res.Edges, want) {
		t.Fatalf("edges:\n got %+v\nwant %+v", res.Edges, want)
	}
	// Without the control exclusion, the carried RAW into the test would
	// block the loop, and the test's non-reduction read would poison the
	// increment's reduction.
	v := res.Verdicts[loop]
	if !v.Parallelizable || v.HasReduction || v.Detail != (deps.Detail{}) || len(v.Reasons) != 0 {
		t.Fatalf("verdict %+v, want parallelizable with no evidence", v)
	}
}

// The shadow table is sized to what was touched: an array of 2^24 cells
// with two touched elements costs the analyzer two index pages, one
// page pointer per 1,024 addresses and two cells. The events are the
// ones the interpreter emits for big[0] = 1.0; big[N-1] = big[0]; they
// are fed directly because the interpreter itself would hold 8 bytes per
// declared cell (128 MiB) and hide the analyzer's share.
func TestLargeSparseArrayShadowBytes(t *testing.T) {
	const n = 1 << 24
	prog := ir.MustLower(minic.MustParse("t", fmt.Sprintf(`
float big[%d];
void main() { big[0] = 1.0; big[%d] = big[0]; }
`, n, n-1)))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	an := deps.NewAnalyzer()
	an.Access(&interp.Access{Addr: 0, Write: true, Array: true, StmtID: 1})
	an.Access(&interp.Access{Addr: 0, Array: true, StmtID: 2})
	an.Access(&interp.Access{Addr: n - 1, Write: true, Array: true, StmtID: 2})
	res := an.Finalize(prog, interp.Stats{})
	runtime.ReadMemStats(&ms)
	// Two pages of 4 KiB plus 16,384 page pointers is ~136 KiB. A flat
	// 4-byte index per address would be 64 MiB, a cell per address GiBs.
	const bound = 512 << 10
	if got := ms.TotalAlloc - before; got > bound {
		t.Fatalf("analyzer allocated %d bytes for 2 touched cells of %d, want <= %d", got, n, bound)
	}
	if len(res.Edges) != 1 || res.Edges[0].Kind != deps.RAW {
		t.Fatalf("edges %+v, want the one RAW from big[0]'s write to its read", res.Edges)
	}
}

// Every (kind, carrier) combination on one statement pair is its own
// edge in the analyzer's table, and each keeps the smallest distance
// observed for it. Statement 5 is the source and 6 the destination
// throughout; each observation uses its own address, so the pair
// collects RAW, WAR and WAW edges carried by loop 1 and by loop 2, plus
// one loop-independent RAW.
func TestEdgeTableOnePairManyEdges(t *testing.T) {
	an := deps.NewAnalyzer()
	acc := func(addr uint64, write bool, stmt, loop int, inst, iter int64) {
		an.LoopIter(loop, inst, iter) // a new loop stack for every access
		an.Access(&interp.Access{Addr: addr, Write: write, StmtID: stmt,
			Frames: []interp.LoopFrame{{ID: loop, Instance: inst, Iter: iter}}})
	}
	addr := uint64(0)
	pair := func(kind deps.Kind, loop int, inst, from, to int64) {
		addr++
		acc(addr, kind != deps.WAR, 5, loop, inst, from)
		acc(addr, kind != deps.RAW, 6, loop, inst, to)
	}
	for _, loop := range []struct {
		id   int
		inst int64
		raw  []int64 // iteration distances, in order observed
		war  []int64
		waw  []int64
	}{
		{1, 1, []int64{2, 1, 4}, []int64{3}, []int64{2, 5}},
		{2, 2, []int64{3, 2, 6}, []int64{5, 4}, []int64{1}},
	} {
		for _, d := range loop.raw {
			pair(deps.RAW, loop.id, loop.inst, 1, 1+d)
		}
		for _, d := range loop.war {
			pair(deps.WAR, loop.id, loop.inst, 1, 1+d)
		}
		for _, d := range loop.waw {
			pair(deps.WAW, loop.id, loop.inst, 1, 1+d)
		}
	}
	pair(deps.RAW, 1, 1, 7, 7) // same iteration: loop-independent

	prog := ir.MustLower(minic.MustParse("t", `void main() { for (int i = 0; i < 1; i++) { } for (int j = 0; j < 1; j++) { } }`))
	res := an.Finalize(prog, interp.Stats{})
	want := []deps.Edge{
		{Kind: deps.RAW, SrcStmt: 5, DstStmt: 6},
		{Kind: deps.RAW, SrcStmt: 5, DstStmt: 6, Carried: true, Carrier: 1, Distance: 1},
		{Kind: deps.RAW, SrcStmt: 5, DstStmt: 6, Carried: true, Carrier: 2, Distance: 2},
		{Kind: deps.WAR, SrcStmt: 5, DstStmt: 6, Carried: true, Carrier: 1, Distance: 3},
		{Kind: deps.WAR, SrcStmt: 5, DstStmt: 6, Carried: true, Carrier: 2, Distance: 4},
		{Kind: deps.WAW, SrcStmt: 5, DstStmt: 6, Carried: true, Carrier: 1, Distance: 2},
		{Kind: deps.WAW, SrcStmt: 5, DstStmt: 6, Carried: true, Carrier: 2, Distance: 1},
	}
	if !reflect.DeepEqual(res.Edges, want) {
		t.Fatalf("edges:\n got %+v\nwant %+v", res.Edges, want)
	}
	if got := res.EdgesFrom(5); len(got) != len(want) {
		t.Fatalf("EdgesFrom(5) holds %d edges, want %d", len(got), len(want))
	}
	if got := res.EdgesInto(6); len(got) != len(want) {
		t.Fatalf("EdgesInto(6) holds %d edges, want %d", len(got), len(want))
	}
}

// The reads kept between two writes of one address form a ring of the
// newest 256: older reads are dropped, so the write that ends them
// records WAR edges, distances and blocking evidence from the survivors
// only. Every read has its own statement so each survivor is one edge.
// Loop 1 reads address 100 once in each of iterations 0..299, then
// writes it in iteration 300: the reads of iterations 44..299 survive,
// each a carried WAR at distance 300-k, and their exposure blocks the
// loop. Loop 2 reads address 200 ten times in iteration 0 and 256 times
// in iteration 1, then writes it in iteration 1: only the same-iteration
// reads survive, so no carried WAR is seen and the loop stays parallel.
func TestReadRingKeepsNewest(t *testing.T) {
	an := deps.NewAnalyzer()
	access := func(addr uint64, write bool, stmt, loop int, inst, iter int64) {
		an.Access(&interp.Access{Addr: addr, Write: write, StmtID: stmt,
			Frames: []interp.LoopFrame{{ID: loop, Instance: inst, Iter: iter}}})
	}
	var want []deps.Edge

	an.LoopEnter(1, 1, 0, false)
	for k := int64(0); k < 300; k++ {
		an.LoopIter(1, 1, k)
		access(100, false, 1000+int(k), 1, 1, k)
		if k >= 300-256 {
			want = append(want, deps.Edge{Kind: deps.WAR, SrcStmt: 1000 + int(k), DstStmt: 5,
				Carried: true, Carrier: 1, Distance: 300 - k})
		}
	}
	an.LoopIter(1, 1, 300)
	access(100, true, 5, 1, 1, 300)
	an.LoopExit(1, 1, 300)

	an.LoopEnter(2, 2, 0, false)
	for k := 0; k < 10; k++ {
		access(200, false, 3000+k, 2, 2, 0)
	}
	an.LoopIter(2, 2, 1)
	for k := 0; k < 256; k++ {
		access(200, false, 4000+k, 2, 2, 1)
		want = append(want, deps.Edge{Kind: deps.WAR, SrcStmt: 4000 + k, DstStmt: 6})
	}
	access(200, true, 6, 2, 2, 1)
	an.LoopExit(2, 2, 1)

	prog := ir.MustLower(minic.MustParse("t", `void main() { for (int i = 0; i < 1; i++) { } for (int j = 0; j < 1; j++) { } }`))
	res := an.Finalize(prog, interp.Stats{})
	if !reflect.DeepEqual(res.Edges, want) {
		t.Fatalf("edges: got %d, want %d\n got %+v\nwant %+v", len(res.Edges), len(want), res.Edges, want)
	}
	v1 := res.Verdicts[1]
	if v1.Parallelizable || v1.Detail != (deps.Detail{LCWarBad: true}) {
		t.Fatalf("loop 1 verdict %+v, want blocked by an exposed carried WAR only", v1)
	}
	if v2 := res.Verdicts[2]; !v2.Parallelizable || v2.Detail != (deps.Detail{}) {
		t.Fatalf("loop 2 verdict %+v, want parallelizable with no evidence", v2)
	}
}
