package cu_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mvpar/internal/bench"
	"mvpar/internal/cu"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
)

const src = `
float a[8];
float s;
float helper(float x) {
    float t = x * 2.0;
    return t;
}
void main() {
    for (int i = 0; i < 8; i++) {
        s += a[i];
        a[i] = helper(a[i]);
    }
    s = 0.0;
}
`

func build(t *testing.T, source string) (*ir.Program, *cu.Set) {
	t.Helper()
	prog := ir.MustLower(minic.MustParse("t", source))
	return prog, cu.Build(prog)
}

func TestPartitionCoversAllStatements(t *testing.T) {
	prog, set := build(t, src)
	// Every instruction with a statement ID must land in exactly one CU,
	// and that CU must contain it.
	counts := map[int]int{}
	for _, fn := range prog.Funcs {
		for _, in := range fn.Code {
			switch in.Op {
			case ir.OpLoopBegin, ir.OpLoopEnd, ir.OpLoopNext, ir.OpBr:
				continue
			}
			if in.StmtID == 0 {
				continue
			}
			counts[int(in.StmtID)]++
		}
	}
	for stmt, n := range counts {
		c := set.ByStmt[stmt]
		if c == nil {
			t.Fatalf("statement %d has no CU", stmt)
		}
		if len(c.Instrs) != n {
			t.Fatalf("CU %d holds %d instrs, expected %d", stmt, len(c.Instrs), n)
		}
	}
	if len(set.CUs) != len(counts) {
		t.Fatalf("CU count %d != distinct statements %d", len(set.CUs), len(counts))
	}
}

func TestCUAttributes(t *testing.T) {
	_, set := build(t, src)
	var redCU, callCU *cu.CU
	for _, c := range set.CUs {
		if c.Reduction == ir.RedSum && contains(c.Writes, "s") {
			redCU = c
		}
		if c.HasCall {
			callCU = c
		}
	}
	if redCU == nil {
		t.Fatal("no reduction CU found for s += a[i]")
	}
	if !contains(redCU.Reads, "a") || !contains(redCU.Reads, "s") {
		t.Fatalf("reduction CU reads = %v", redCU.Reads)
	}
	if redCU.LoopID == 0 {
		t.Fatal("reduction CU not attributed to the loop")
	}
	if callCU == nil || callCU.Callees[0] != "helper" {
		t.Fatalf("call CU = %+v", callCU)
	}
}

func TestLoopAndFuncStmts(t *testing.T) {
	prog, set := build(t, src)
	loopID := prog.LoopIDs()[0]
	inLoop := set.LoopStmts[loopID]
	if len(inLoop) < 3 { // init, cond, body stmts, post
		t.Fatalf("loop stmts = %v", inLoop)
	}
	if len(set.FuncStmts["helper"]) == 0 || len(set.FuncStmts["main"]) == 0 {
		t.Fatalf("func stmts: %v", set.FuncStmts)
	}
	// s = 0.0 after the loop must not be inside it.
	last := set.FuncStmts["main"][len(set.FuncStmts["main"])-1]
	for _, s := range inLoop {
		if s == last {
			t.Fatal("post-loop statement attributed to the loop")
		}
	}
}

func TestLoopRegionIncludesCallees(t *testing.T) {
	prog, set := build(t, src)
	loopID := prog.LoopIDs()[0]
	region := set.LoopRegionStmts(loopID)
	helperStmts := set.FuncStmts["helper"]
	if len(helperStmts) == 0 {
		t.Fatal("helper has no statements")
	}
	found := 0
	for _, h := range helperStmts {
		for _, r := range region {
			if r == h {
				found++
				break
			}
		}
	}
	if found != len(helperStmts) {
		t.Fatalf("region missing callee statements: %d/%d", found, len(helperStmts))
	}
	// Region must be sorted and duplicate-free.
	for i := 1; i < len(region); i++ {
		if region[i] <= region[i-1] {
			t.Fatalf("region not strictly increasing: %v", region)
		}
	}
}

func TestReachableFuncsRecursion(t *testing.T) {
	_, set := build(t, `
int fib(int k) {
    if (k < 2) { return k; }
    return fib(k - 1) + fib(k - 2);
}
void main() {
    int r = fib(5);
}
`)
	fns := set.ReachableFuncs([]string{"fib"})
	if len(fns) != 1 || fns[0] != "fib" {
		t.Fatalf("reachable = %v", fns)
	}
}

func TestNestedLoopPath(t *testing.T) {
	prog, set := build(t, `
float A[4][4];
void main() {
    for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 4; j++) {
            A[i][j] = i + j;
        }
    }
}
`)
	ids := prog.LoopIDs()
	var bodyCU *cu.CU
	for _, c := range set.CUs {
		if contains(c.Writes, "A") {
			bodyCU = c
		}
	}
	if bodyCU == nil {
		t.Fatal("no CU writes A")
	}
	if len(bodyCU.LoopPath) != 2 || bodyCU.LoopPath[0] != ids[0] || bodyCU.LoopPath[1] != ids[1] {
		t.Fatalf("loop path = %v, want %v", bodyCU.LoopPath, ids)
	}
	if bodyCU.LoopID != ids[1] {
		t.Fatalf("innermost loop = %d, want %d", bodyCU.LoopID, ids[1])
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestRegionIndexMatchesOracle checks Build's region index against the
// per-loop computation it replaced, for every loop of every corpus
// program at every IR variant, plus programs whose loops call helpers,
// recurse and nest calls inside nested loops.
func TestRegionIndexMatchesOracle(t *testing.T) {
	progs := map[string]*ir.Program{}
	for _, app := range bench.Corpus() {
		base := ir.MustLower(minic.MustParse(app.Name, app.Source))
		for v := 0; v < ir.NumVariants; v++ {
			progs[fmt.Sprintf("%s/v%d", app.Name, v)] = ir.Variant(base, v)
		}
	}
	progs["helper"] = ir.MustLower(minic.MustParse("helper", src))
	progs["recursion"] = ir.MustLower(minic.MustParse("recursion", `
float a[16];
int fib(int k) {
    for (int j = 0; j < 2; j++) { a[j] = a[j] + 1.0; }
    if (k < 2) { return k; }
    return fib(k - 1) + fib(k - 2);
}
int even(int k) { if (k == 0) { return 1; } return odd(k - 1); }
int odd(int k) { if (k == 0) { return 0; } return even(k - 1); }
void main() {
    int r = 0;
    for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 4; j++) {
            r = r + fib(j) + even(i);
        }
        a[i] = r;
    }
    for (int i = 0; i < 4; i++) { r = r + odd(i); }
}
`))
	for name, prog := range progs {
		set := cu.Build(prog)
		ids := prog.LoopIDs()
		if !reflect.DeepEqual(set.LoopIDs(), ids) {
			t.Fatalf("%s: LoopIDs %v, want %v", name, set.LoopIDs(), ids)
		}
		for _, id := range ids {
			want := set.OracleRegionStmts(id)
			if got := set.LoopRegionStmts(id); !slices.Equal(got, want) {
				t.Fatalf("%s loop %d: region %v, want %v", name, id, got, want)
			}
			overlap, inner := set.OracleRegionLoops(ids, id)
			if got := set.RegionLoops(id); !slices.Equal(got, overlap) {
				t.Fatalf("%s loop %d: region loops %v, want %v", name, id, got, overlap)
			}
			if got := set.InnerLoops(id); got != inner {
				t.Fatalf("%s loop %d: inner loops %d, want %d", name, id, got, inner)
			}
		}
		for i, c := range set.CUs {
			if set.Index(c.StmtID) != i {
				t.Fatalf("%s: Index(%d) = %d, want %d", name, c.StmtID, set.Index(c.StmtID), i)
			}
			if cap(c.Instrs) != len(c.Instrs) {
				t.Fatalf("%s: CU %d Instrs cap %d > len %d: an append would write into the next CU",
					name, c.StmtID, cap(c.Instrs), len(c.Instrs))
			}
		}
	}
	if set := cu.Build(progs["helper"]); set.LoopRegionStmts(999) != nil || set.RegionLoops(999) != nil ||
		set.InnerLoops(999) != 0 || set.Index(-1) != -1 || set.Index(1<<20) != -1 {
		t.Fatal("unknown loop or statement not reported empty")
	}
}

func TestLoopIDsSorted(t *testing.T) {
	for _, app := range bench.Corpus() {
		prog := ir.MustLower(minic.MustParse(app.Name, app.Source))
		ids := prog.LoopIDs()
		if len(ids) != len(prog.Loops) || !slices.IsSorted(ids) {
			t.Fatalf("%s: LoopIDs %v not the %d loop IDs ascending", app.Name, ids, len(prog.Loops))
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] == ids[i-1] {
				t.Fatalf("%s: LoopIDs repeats %d", app.Name, ids[i])
			}
		}
	}
}
