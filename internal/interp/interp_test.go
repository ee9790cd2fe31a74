package interp_test

import (
	"errors"
	"testing"

	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
	"mvpar/internal/obs"
)

func lower(t *testing.T, src string) *ir.Program {
	t.Helper()
	return ir.MustLower(minic.MustParse("t", src))
}

// recordingTracer captures the event stream for assertions.
type recordingTracer struct {
	reads, writes int
	redReads      int
	enters        map[int]int
	iters         map[int]int64
	exits         map[int]int64
	maxDepth      int
	addrs         map[uint64]bool
	ctrlAddrs     map[int]uint64
}

func newRecorder() *recordingTracer {
	return &recordingTracer{
		enters: map[int]int{}, iters: map[int]int64{}, exits: map[int]int64{},
		addrs: map[uint64]bool{}, ctrlAddrs: map[int]uint64{},
	}
}

func (r *recordingTracer) Access(a *interp.Access) {
	if a.Write {
		r.writes++
	} else {
		r.reads++
		if a.Red != ir.RedNone {
			r.redReads++
		}
	}
	if len(a.Frames) > r.maxDepth {
		r.maxDepth = len(a.Frames)
	}
	r.addrs[a.Addr] = true
}

func (r *recordingTracer) LoopEnter(id int, instance int64, ctrlAddr uint64, hasCtrl bool) {
	r.enters[id]++
	if hasCtrl {
		r.ctrlAddrs[id] = ctrlAddr
	}
}

func (r *recordingTracer) LoopIter(id int, instance, iter int64) { r.iters[id]++ }

func (r *recordingTracer) LoopExit(id int, instance, iters int64) { r.exits[id] += iters }

func TestTracerLoopEvents(t *testing.T) {
	p := lower(t, `
float a[12];
void main() {
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 4; j++) {
            a[i * 4 + j] = i + j;
        }
    }
}
`)
	rec := newRecorder()
	it := interp.New(p, rec, interp.Limits{})
	stats, err := it.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	ids := p.LoopIDs()
	outer, inner := ids[0], ids[1]
	if rec.enters[outer] != 1 || rec.enters[inner] != 3 {
		t.Fatalf("enters = %v", rec.enters)
	}
	if rec.iters[outer] != 3 || rec.iters[inner] != 12 {
		t.Fatalf("iters = %v", rec.iters)
	}
	if rec.exits[outer] != 3 || rec.exits[inner] != 12 {
		t.Fatalf("exit iter totals = %v", rec.exits)
	}
	if stats.LoopIters[outer] != 3 || stats.LoopIters[inner] != 12 {
		t.Fatalf("stats iters = %v", stats.LoopIters)
	}
	if stats.LoopEnter[inner] != 3 {
		t.Fatalf("stats enters = %v", stats.LoopEnter)
	}
	if rec.writes != 12+4 { // 12 array stores + 1 outer init + 3 inner inits... recounted below
		// i init (1) + j init (3) + a stores (12) + i++ (3) + j++ (12) = 31 writes.
		// Keep the informative failure if the count drifts.
	}
	if rec.writes != 31 {
		t.Fatalf("writes = %d, want 31", rec.writes)
	}
	if rec.maxDepth != 2 {
		t.Fatalf("max loop depth = %d, want 2", rec.maxDepth)
	}
	if _, ok := rec.ctrlAddrs[outer]; !ok {
		t.Fatal("outer loop ctrl address missing")
	}
	if rec.ctrlAddrs[outer] == rec.ctrlAddrs[inner] {
		t.Fatal("ctrl addresses of different loops must differ")
	}
}

func TestTracerReductionReads(t *testing.T) {
	p := lower(t, `
float a[4];
float s;
void main() {
    for (int i = 0; i < 4; i++) { s += a[i]; }
}
`)
	rec := newRecorder()
	if _, err := interp.New(p, rec, interp.Limits{}).Run("main"); err != nil {
		t.Fatal(err)
	}
	// 4 accumulator loads from s plus 4 loads of i in the (sum-tagged) i++.
	if rec.redReads != 8 {
		t.Fatalf("reduction-tagged reads = %d, want 8", rec.redReads)
	}
}

func TestRecursionGetsFreshAddresses(t *testing.T) {
	p := lower(t, `
int out;
int down(int k) {
    int local = k;
    if (k <= 0) { return 0; }
    return local + down(k - 1);
}
void main() { out = down(5); }
`)
	rec := newRecorder()
	it := interp.New(p, rec, interp.Limits{})
	if _, err := it.Run("main"); err != nil {
		t.Fatal(err)
	}
	if v, _ := it.GlobalValue("out", 0); v != 15 {
		t.Fatalf("down(5) sum = %v, want 15", v)
	}
	// Each of the 6 frames has a distinct `local` and `k`; plus globals.
	// At minimum 6 distinct local addresses must appear.
	if len(rec.addrs) < 12 {
		t.Fatalf("distinct traced addresses = %d, want >= 12", len(rec.addrs))
	}
}

func TestBudgetExceeded(t *testing.T) {
	p := lower(t, `
void main() {
    int i = 0;
    while (i < 1000000) { i++; }
}
`)
	_, err := interp.New(p, nil, interp.Limits{MaxSteps: 1000}).Run("main")
	if !errors.Is(err, interp.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestIndexOutOfRange(t *testing.T) {
	p := lower(t, `
float a[4];
void main() {
    for (int i = 0; i <= 4; i++) { a[i] = 1.0; }
}
`)
	if _, err := interp.New(p, nil, interp.Limits{}).Run("main"); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestMissingEntry(t *testing.T) {
	p := lower(t, "void f() { }")
	if _, err := interp.New(p, nil, interp.Limits{}).Run("main"); err == nil {
		t.Fatal("expected error for missing entry")
	}
}

func TestEntryWithParamsRejected(t *testing.T) {
	p := lower(t, "void main(int x) { }")
	if _, err := interp.New(p, nil, interp.Limits{}).Run("main"); err == nil {
		t.Fatal("expected error for entry with parameters")
	}
}

func TestArrayPassedByReference(t *testing.T) {
	p := lower(t, `
float buf[4];
void fill(float b[4], int n) {
    for (int i = 0; i < n; i++) { b[i] = i * 10.0; }
}
void main() { fill(buf, 4); }
`)
	it := interp.New(p, nil, interp.Limits{})
	if _, err := it.Run("main"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if v, _ := it.GlobalValue("buf", i); v != float64(i*10) {
			t.Fatalf("buf[%d] = %v", i, v)
		}
	}
}

func TestRerunResetsState(t *testing.T) {
	p := lower(t, `
int c;
void main() { c += 1; }
`)
	it := interp.New(p, nil, interp.Limits{})
	for i := 0; i < 3; i++ {
		if _, err := it.Run("main"); err != nil {
			t.Fatal(err)
		}
		if v, _ := it.GlobalValue("c", 0); v != 1 {
			t.Fatalf("run %d: c = %v, want 1 (state must reset)", i, v)
		}
	}
}

// Lowering resolves names per function, so a callee whose array
// parameter is named like a caller's unrelated variable, and a caller
// array named like the callee's local, still bind by position.
func TestArrayParamNamedUnlikeArgument(t *testing.T) {
	p := lower(t, `
float out[3];
void scale(float src[3], float dst[3], float k) {
    float buf[3];
    for (int i = 0; i < 3; i++) { buf[i] = src[i] * k; dst[i] = buf[i]; }
}
void main() {
    float buf[3];
    float src[3];
    for (int i = 0; i < 3; i++) { buf[i] = i + 1.0; src[i] = 100.0; }
    scale(buf, out, 2.0);
}
`)
	it := interp.New(p, nil, interp.Limits{})
	if _, err := it.Run("main"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if v, _ := it.GlobalValue("out", i); v != float64(2*(i+1)) {
			t.Fatalf("out[%d] = %v, want %v", i, v, 2*(i+1))
		}
	}
}

// Two by-reference array arguments bind to their own arrays, and an
// array passed down a recursion is the caller's array at every depth.
func TestArraysByReferenceThroughRecursion(t *testing.T) {
	p := lower(t, `
int a[6];
int b[6];
void fill(int x[6], int y[6], int k) {
    if (k >= 6) { return; }
    x[k] = k;
    y[k] = 10 * k;
    fill(x, y, k + 1);
}
void main() { fill(a, b, 0); }
`)
	rec := newRecorder()
	it := interp.New(p, rec, interp.Limits{})
	if _, err := it.Run("main"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		x, _ := it.GlobalValue("a", i)
		y, _ := it.GlobalValue("b", i)
		if x != float64(i) || y != float64(10*i) {
			t.Fatalf("a[%d], b[%d] = %v, %v, want %d, %d", i, i, x, y, i, 10*i)
		}
	}
	// a and b are the first 12 cells; each of the 7 frames adds one cell
	// for k, and the array stores touch only a and b.
	if rec.writes != 12 {
		t.Fatalf("writes = %d, want the 12 array stores", rec.writes)
	}
}

// A for loop controlled by a global reports the global's address at
// LoopEnter; a loop over a local of the same name in a callee reports a
// fresh local address per call.
func TestGlobalLoopControlAddress(t *testing.T) {
	p := lower(t, `
int i;
float a[4];
void f() {
    int i;
    for (i = 0; i < 2; i++) { a[i] = 1.0; }
}
void main() {
    for (i = 0; i < 2; i++) { f(); }
}
`)
	var first *interp.Access
	rec := &ctrlRecorder{first: &first}
	if _, err := interp.New(p, rec, interp.Limits{}).Run("main"); err != nil {
		t.Fatal(err)
	}
	ids := p.LoopIDs()
	outer, inner := ids[1], ids[0] // f's loop is parsed first
	if p.Loops[outer].Func != "main" || p.Loops[inner].Func != "f" {
		t.Fatalf("loops %v", p.Loops)
	}
	// The first access of the run is main's store i = 0, to the global.
	if first == nil || !first.Write || len(rec.ctrl[outer]) != 1 || rec.ctrl[outer][0] != first.Addr {
		t.Fatalf("outer ctrl %v, want the global i at %v", rec.ctrl[outer], first)
	}
	in := rec.ctrl[inner]
	if len(in) != 2 || in[0] == in[1] || in[0] == first.Addr || in[1] == first.Addr {
		t.Fatalf("inner ctrl %v, want two fresh local addresses", in)
	}
}

type ctrlRecorder struct {
	first **interp.Access
	ctrl  map[int][]uint64
}

func (r *ctrlRecorder) Access(a *interp.Access) {
	if *r.first == nil {
		c := *a
		*r.first = &c
	}
}

func (r *ctrlRecorder) LoopEnter(id int, instance int64, ctrlAddr uint64, hasCtrl bool) {
	if r.ctrl == nil {
		r.ctrl = map[int][]uint64{}
	}
	if hasCtrl {
		r.ctrl[id] = append(r.ctrl[id], ctrlAddr)
	}
}

func (r *ctrlRecorder) LoopIter(id int, instance, iter int64) {}

func (r *ctrlRecorder) LoopExit(id int, instance, iters int64) {}

// A hand-built program that names an unknown variable or callee resolves
// without complaint and fails with the interpreter's error when that
// instruction runs, after the instructions before it executed.
func TestUnresolvedNamesFailWhenRun(t *testing.T) {
	build := func(bad ir.Instr) *ir.Program {
		p := &ir.Program{
			Name:    "hand",
			Globals: []ir.Var{{Name: "x", Type: minic.TypeInt}},
			Funcs: []*ir.Func{{Name: "main", NumRegs: 2, Calls: []ir.Call{{Callee: "ghost"}}, Code: []ir.Instr{
				{Op: ir.OpConst, Dst: 0, A: -1, B: -1, Idx: -1, KI: 7},
				{Op: ir.OpStore, Dst: -1, A: 0, B: -1, Idx: -1, Var: "x"},
				bad,
				{Op: ir.OpRet, Dst: -1, A: -1, B: -1, Idx: -1},
			}}},
			Loops: map[int]ir.LoopMeta{},
		}
		ir.Resolve(p)
		return p
	}
	for _, tc := range []struct {
		bad  ir.Instr
		want string
	}{
		{ir.Instr{Op: ir.OpStore, Dst: -1, A: 0, B: -1, Idx: -1, Var: "nope"}, `interp: main: unknown variable "nope"`},
		{ir.Instr{Op: ir.OpLoad, Dst: 1, A: -1, B: -1, Idx: -1, Var: "nope"}, `interp: main: unknown variable "nope"`},
		{ir.Instr{Op: ir.OpCall, Dst: 1, A: -1, B: -1, Idx: -1, Call: 0}, `interp: call to unknown function "ghost"`},
	} {
		p := build(tc.bad)
		rec := newRecorder()
		it := interp.New(p, rec, interp.Limits{})
		_, err := it.Run("main")
		if err == nil || err.Error() != tc.want {
			t.Fatalf("%v: err = %v, want %q", tc.bad.Op, err, tc.want)
		}
		if v, _ := it.GlobalValue("x", 0); v != 7 || rec.writes != 1 {
			t.Fatalf("%v: x = %v after %d writes, want the store before the bad instruction to run", tc.bad.Op, v, rec.writes)
		}
	}
}

// A traced run publishes the tracer event volume once, from Stats: the
// counters grow by exactly the events the tracer saw, and a return from
// inside a loop (which skips that loop's exit) counts no exit. An
// untraced run publishes no events.
func TestRunPublishesEventCounts(t *testing.T) {
	p := lower(t, `
float a[6];
int first() {
    for (int i = 0; i < 6; i++) { if (a[i] == 0.0) { return i; } }
    return -1;
}
void main() {
    int k;
    for (int j = 0; j < 3; j++) { a[j] = j + 1.0; k = first(); }
}
`)
	names := []string{"access", "write", "loop_enter", "loop_iter", "loop_exit"}
	counts := func() []int64 {
		var out []int64
		for _, n := range names {
			out = append(out, obs.GetCounter("mvpar_interp_"+n+"_events_total").Value())
		}
		return out
	}
	rec := &eventCounter{}
	before := counts()
	stats, err := interp.New(p, rec, interp.Limits{}).Run("main")
	if err != nil {
		t.Fatal(err)
	}
	after := counts()
	want := []int64{rec.reads + rec.writes, rec.writes, rec.enters, rec.iters, rec.exits}
	for i, n := range names {
		if got := after[i] - before[i]; got != want[i] {
			t.Errorf("%s events published %d, tracer saw %d", n, got, want[i])
		}
	}
	if stats.Accesses != rec.reads+rec.writes || stats.Writes != rec.writes {
		t.Errorf("stats accesses %d, writes %d; tracer saw %d, %d", stats.Accesses, stats.Writes, rec.reads+rec.writes, rec.writes)
	}
	if rec.exits >= rec.enters {
		t.Fatalf("exits %d, enters %d: want first's loop left by return", rec.exits, rec.enters)
	}
	before = counts()
	if _, err := interp.New(p, nil, interp.Limits{}).Run("main"); err != nil {
		t.Fatal(err)
	}
	for i, v := range counts() {
		if v != before[i] {
			t.Errorf("untraced run published %d %s events", v-before[i], names[i])
		}
	}
}

type eventCounter struct{ reads, writes, enters, iters, exits int64 }

func (c *eventCounter) Access(a *interp.Access) {
	if a.Write {
		c.writes++
	} else {
		c.reads++
	}
}

func (c *eventCounter) LoopEnter(id int, instance int64, ctrlAddr uint64, hasCtrl bool) {
	c.enters++
}

func (c *eventCounter) LoopIter(id int, instance, iter int64) { c.iters++ }

func (c *eventCounter) LoopExit(id int, instance, iters int64) { c.exits++ }
