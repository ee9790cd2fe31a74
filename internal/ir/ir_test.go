package ir_test

import (
	"strings"
	"testing"
	"unsafe"

	"mvpar/internal/bench"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
)

func lower(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := minic.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ir.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func run(t *testing.T, p *ir.Program) *interp.Interp {
	t.Helper()
	it := interp.New(p, nil, interp.Limits{})
	if _, err := it.Run("main"); err != nil {
		t.Fatal(err)
	}
	return it
}

func globalVal(t *testing.T, it *interp.Interp, name string, i int) float64 {
	t.Helper()
	v, err := it.GlobalValue(name, i)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestLowerAndRunFib(t *testing.T) {
	p := lower(t, `
int result;
int fib(int k) {
    if (k < 2) { return k; }
    return fib(k - 1) + fib(k - 2);
}
void main() { result = fib(10); }
`)
	it := run(t, p)
	if got := globalVal(t, it, "result", 0); got != 55 {
		t.Fatalf("fib(10) = %v, want 55", got)
	}
}

func TestLowerAndRunMatvec(t *testing.T) {
	p := lower(t, `
float A[4][4];
float x[4];
float y[4];
void main() {
    for (int i = 0; i < 4; i++) {
        x[i] = i + 1.0;
        for (int j = 0; j < 4; j++) {
            A[i][j] = i + j;
        }
    }
    for (int i = 0; i < 4; i++) {
        float s = 0.0;
        for (int j = 0; j < 4; j++) {
            s += A[i][j] * x[j];
        }
        y[i] = s;
    }
}
`)
	it := run(t, p)
	// Row i of A is [i, i+1, i+2, i+3], x = [1,2,3,4].
	// y[i] = sum_j (i+j)*(j+1) = i*10 + (0*1+1*2+2*3+3*4) = 10i + 20.
	for i := 0; i < 4; i++ {
		want := float64(10*i + 20)
		if got := globalVal(t, it, "y", i); got != want {
			t.Fatalf("y[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestIntDivisionTruncates(t *testing.T) {
	p := lower(t, `
int q;
float f;
void main() {
    int a = 7;
    int b = 2;
    q = a / b;
    f = 7.0 / 2.0;
}
`)
	it := run(t, p)
	if got := globalVal(t, it, "q", 0); got != 3 {
		t.Fatalf("7/2 = %v, want 3", got)
	}
	if got := globalVal(t, it, "f", 0); got != 3.5 {
		t.Fatalf("7.0/2.0 = %v, want 3.5", got)
	}
}

func TestModuloAndUnary(t *testing.T) {
	p := lower(t, `
int m;
int n;
void main() {
    m = 17 % 5;
    n = -m + (!0);
}
`)
	it := run(t, p)
	if got := globalVal(t, it, "m", 0); got != 2 {
		t.Fatalf("17%%5 = %v", got)
	}
	if got := globalVal(t, it, "n", 0); got != -1 {
		t.Fatalf("-2+1 = %v", got)
	}
}

func TestWhileLoopAndLogicalOps(t *testing.T) {
	p := lower(t, `
int count;
void main() {
    int i = 0;
    while (i < 10 && count < 6) {
        if (i % 2 == 0 || i == 7) { count += 1; }
        i++;
    }
}
`)
	it := run(t, p)
	// Even i in 0..9: 0,2,4,6,8 -> 5 increments; i==7 -> 1 more = 6.
	if got := globalVal(t, it, "count", 0); got != 6 {
		t.Fatalf("count = %v, want 6", got)
	}
}

func TestStoreIntTruncates(t *testing.T) {
	p := lower(t, `
int x;
float half() { return 2.9; }
void main() { x = half(); }
`)
	it := run(t, p)
	if got := globalVal(t, it, "x", 0); got != 2 {
		t.Fatalf("int x = 2.9 stored %v, want 2", got)
	}
}

func TestLoopMetadata(t *testing.T) {
	p := lower(t, `
float a[8];
void main() {
    for (int i = 0; i < 8; i++) {
        for (int j = 0; j < 4; j++) {
            a[i] += j;
        }
    }
    int k = 0;
    while (k < 3) { k++; }
}
`)
	ids := p.LoopIDs()
	if len(ids) != 3 {
		t.Fatalf("loops = %v", ids)
	}
	outer := p.Loops[ids[0]]
	inner := p.Loops[ids[1]]
	wh := p.Loops[ids[2]]
	if outer.Depth != 0 || inner.Depth != 1 {
		t.Fatalf("depths: outer=%d inner=%d", outer.Depth, inner.Depth)
	}
	if outer.CtrlVar == "" || inner.CtrlVar == "" {
		t.Fatalf("ctrl vars: %q %q", outer.CtrlVar, inner.CtrlVar)
	}
	if outer.CtrlVar == inner.CtrlVar {
		t.Fatal("nested loop ctrl vars must be distinct after renaming")
	}
	if !wh.IsWhile || wh.CtrlVar != "" {
		t.Fatalf("while meta = %+v", wh)
	}
}

func TestReductionTagging(t *testing.T) {
	p := lower(t, `
float a[8];
float sum;
float prod;
float notred;
void main() {
    for (int i = 0; i < 8; i++) {
        sum += a[i];
        prod *= 2.0;
        notred = a[i] / (notred + 1.0);
    }
}
`)
	fn := p.Func("main")
	var sumTags, prodTags, notredTags int
	for _, in := range fn.Code {
		if in.Var == "sum" && in.Red == ir.RedSum {
			sumTags++
		}
		if in.Var == "prod" && in.Red == ir.RedProd {
			prodTags++
		}
		if in.Var == "notred" && in.Red != ir.RedNone {
			notredTags++
		}
	}
	if sumTags != 2 { // paired load + store
		t.Fatalf("sum reduction tags = %d, want 2", sumTags)
	}
	if prodTags != 2 {
		t.Fatalf("prod reduction tags = %d, want 2", prodTags)
	}
	if notredTags != 0 {
		t.Fatalf("notred tagged as reduction %d times", notredTags)
	}
}

func TestReductionRecognizesXEqualsXPlusE(t *testing.T) {
	p := lower(t, `
float s;
float a[4];
void main() {
    for (int i = 0; i < 4; i++) {
        s = s + a[i];
        s = a[i] + s;
        s = s - a[i];
    }
}
`)
	fn := p.Func("main")
	tags := 0
	for _, in := range fn.Code {
		if in.Var == "s" && in.Red == ir.RedSum {
			tags++
		}
	}
	if tags != 6 { // three statements, each a tagged load+store pair
		t.Fatalf("sum tags = %d, want 6", tags)
	}
}

func TestSelfReferencingRHSNotReduction(t *testing.T) {
	p := lower(t, `
float s;
void main() {
    for (int i = 0; i < 4; i++) {
        s += s * 0.5;
    }
}
`)
	fn := p.Func("main")
	for _, in := range fn.Code {
		// The loop counter's i++ is a legitimate sum tag; only s matters.
		if in.Var == "s" && in.Red != ir.RedNone {
			t.Fatalf("s += s*0.5 must not be tagged: %s", ir.InstrString(fn, in))
		}
	}
}

func TestShadowedLocalsRenamed(t *testing.T) {
	p := lower(t, `
int r;
void main() {
    int x = 1;
    if (x > 0) {
        int x = 10;
        r += x;
    }
    r += x;
}
`)
	it := run(t, p)
	if got := globalVal(t, it, "r", 0); got != 11 {
		t.Fatalf("shadowing result = %v, want 11", got)
	}
}

// TestBlockLocalShadowingGlobalRenamed: a block-scoped local that
// shadows a global must not capture the global's name once its block
// ends.
func TestBlockLocalShadowingGlobalRenamed(t *testing.T) {
	p := lower(t, `int x; int y; void main() { if (1 > 0) { int x; x = 5; } x = 2; y = x; }`)
	it := run(t, p)
	if gx, gy := globalVal(t, it, "x", 0), globalVal(t, it, "y", 0); gx != 2 || gy != 2 {
		t.Fatalf("after the block, x = %v, y = %v; want 2, 2", gx, gy)
	}
}

func TestGlobalInitNonConstRejected(t *testing.T) {
	prog, err := minic.Parse("t", "int f() { return 1; } int x = f();")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ir.Lower(prog); err == nil {
		t.Fatal("expected error for non-constant global initializer")
	}
}

const variantTestSrc = `
float A[6][6];
float v[6];
float out[6];
float checksum;
void main() {
    float scale = (2.0 * 3.0) + 1.0;
    for (int i = 0; i < 6; i++) {
        v[i] = i * 2;
        for (int j = 0; j < 6; j++) {
            A[i][j] = (i + 1) * (j + 2) / 3.0 * scale + (4 - 2 * 2);
        }
    }
    for (int i = 0; i < 6; i++) {
        float acc = 0.0;
        for (int j = 0; j < 6; j++) {
            acc += A[i][j] * v[j];
        }
        out[i] = acc * 2;
    }
    for (int i = 0; i < 6; i++) {
        checksum += out[i];
    }
}
`

func TestVariantsPreserveSemantics(t *testing.T) {
	base := lower(t, variantTestSrc)
	want := globalVal(t, run(t, base), "checksum", 0)
	if want == 0 {
		t.Fatal("checksum should be nonzero")
	}
	for level := 0; level < ir.NumVariants; level++ {
		v := ir.Variant(base, level)
		got := globalVal(t, run(t, v), "checksum", 0)
		if got != want {
			t.Fatalf("variant %d checksum = %v, want %v", level, got, want)
		}
	}
}

func TestVariantsChangeInstructionStream(t *testing.T) {
	base := lower(t, variantTestSrc)
	baseLen := len(base.Func("main").Code)
	folded := ir.Variant(base, 2)
	padded := ir.Variant(base, 4)
	if l := len(folded.Func("main").Code); l >= baseLen {
		t.Fatalf("constfold+deadcode did not shrink code: %d -> %d", baseLen, l)
	}
	if l := len(padded.Func("main").Code); l <= baseLen {
		t.Fatalf("pad did not grow code: %d -> %d", baseLen, l)
	}
	// The original must be untouched (Variant works on a clone).
	if len(base.Func("main").Code) != baseLen {
		t.Fatal("Variant mutated its input")
	}
}

func TestVariantBranchTargetsValid(t *testing.T) {
	base := lower(t, variantTestSrc)
	for level := 0; level < ir.NumVariants; level++ {
		v := ir.Variant(base, level)
		for _, f := range v.Funcs {
			for i, in := range f.Code {
				switch in.Op {
				case ir.OpBr:
					if in.Target < 0 || int(in.Target) > len(f.Code) {
						t.Fatalf("level %d: %s[%d] bad target %d", level, f.Name, i, in.Target)
					}
				case ir.OpCBr:
					if in.Target < 0 || int(in.Target) > len(f.Code) || in.Else < 0 || int(in.Else) > len(f.Code) {
						t.Fatalf("level %d: %s[%d] bad cbr %d/%d", level, f.Name, i, in.Target, in.Else)
					}
				}
			}
		}
	}
}

func TestStrengthReduceRewritesMulByTwo(t *testing.T) {
	p := lower(t, `
float y;
void main() {
    float x = 3.0;
    y = x * 2;
}
`)
	v := ir.Variant(p, 3)
	fn := v.Func("main")
	for _, in := range fn.Code {
		if in.Op == ir.OpMul {
			t.Fatalf("mul by 2 not strength-reduced: %s", ir.InstrString(fn, in))
		}
	}
	if got := globalVal(t, run(t, v), "y", 0); got != 6 {
		t.Fatalf("y = %v, want 6", got)
	}
}

func TestInstrStringForms(t *testing.T) {
	p := lower(t, `
float a[4];
int g(int x) { return x; }
void main() {
    a[1] = 2.0;
    int r = g(3);
    for (int i = 0; i < 2; i++) { a[i] += 1.0; }
}
`)
	var b strings.Builder
	for _, f := range p.Funcs {
		for _, in := range f.Code {
			b.WriteString(ir.InstrString(f, in) + "\n")
		}
	}
	dump := b.String()
	for _, want := range []string{"store double a[r", "call g(", "loop.begin", "loop.next", "loop.end", "cbr r", "const i64"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestLoopIDsSorted(t *testing.T) {
	p := lower(t, `
void main() {
    for (int a = 0; a < 2; a++) { }
    for (int b = 0; b < 2; b++) { }
    for (int c = 0; c < 2; c++) { }
}
`)
	ids := p.LoopIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("LoopIDs not sorted: %v", ids)
		}
	}
}

func TestIfElseChains(t *testing.T) {
	p := lower(t, `
int r;
int classify(int x) {
    if (x < 0) {
        return -1;
    } else {
        if (x == 0) {
            return 0;
        } else {
            return 1;
        }
    }
}
void main() {
    r = classify(-5) * 100 + classify(0) * 10 + classify(7);
}
`)
	it := run(t, p)
	if got := globalVal(t, it, "r", 0); got != -100+0+1 {
		t.Fatalf("classify chain = %v, want -99", got)
	}
}

func TestIfWithoutElseBothPaths(t *testing.T) {
	p := lower(t, `
int hits;
void main() {
    for (int i = 0; i < 6; i++) {
        if (i % 2 == 0) {
            hits += 1;
        }
    }
}
`)
	it := run(t, p)
	if got := globalVal(t, it, "hits", 0); got != 3 {
		t.Fatalf("hits = %v, want 3", got)
	}
}

func TestMustLowerPanicsOnBadProgram(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLower should panic on check failure")
		}
	}()
	prog, err := minic.Parse("bad", "void f() { x = 1; }")
	if err != nil {
		t.Fatal(err)
	}
	ir.MustLower(prog)
}

func TestGlobalConstExprInits(t *testing.T) {
	p := lower(t, `
int a = 2 + 3 * 4;
int b = -(10 - 4);
float c = 12.0 / 4.0;
int out;
float outf;
void main() {
    out = a + b;
    outf = c;
}
`)
	it := run(t, p)
	if got := globalVal(t, it, "out", 0); got != 14-6 {
		t.Fatalf("out = %v, want 8", got)
	}
	if got := globalVal(t, it, "outf", 0); got != 3 {
		t.Fatalf("outf = %v, want 3", got)
	}
}

// Lowering resolves every name it emits: each load and store, each
// by-reference argument and each for loop's control variable names the
// variable its Loc points at, and each call's Fn is its callee, in the
// base program and in every variant.
func TestLowerResolvesEveryName(t *testing.T) {
	for _, app := range bench.Corpus() {
		base := ir.MustLower(minic.MustParse(app.Name, app.Source))
		for level := 0; level < ir.NumVariants; level++ {
			p := ir.Variant(base, level)
			for _, f := range p.Funcs {
				frame := append(append([]ir.Var(nil), f.Params...), f.Locals...)
				name := func(l ir.Loc) string {
					switch {
					case l > 0 && int(l) <= len(frame):
						return frame[l-1].Name
					case l < 0 && int(-l) <= len(p.Globals):
						return p.Globals[-l-1].Name
					}
					return "<unresolved>"
				}
				for i, in := range f.Code {
					var want, got []string
					switch in.Op {
					case ir.OpLoad, ir.OpStore:
						want, got = []string{in.Var}, []string{name(in.Loc)}
					case ir.OpLoopBegin:
						if ctrl := p.Loops[int(in.LoopID)].CtrlVar; ctrl != "" || in.Loc != 0 {
							want, got = []string{ctrl}, []string{name(in.Loc)}
						}
					case ir.OpCall:
						c := f.Calls[in.Call]
						if c.Fn < 1 || p.Funcs[c.Fn-1].Name != c.Callee {
							t.Fatalf("%s/O%d %s:%d: call %q resolved to Fn %d", app.Name, level, f.Name, i, c.Callee, c.Fn)
						}
						for _, a := range c.Args {
							if a.Reg < 0 {
								want, got = append(want, a.Var), append(got, name(a.Loc))
							}
						}
					}
					if strings.Join(want, ",") != strings.Join(got, ",") {
						t.Fatalf("%s/O%d %s:%d %s: resolved %v, want %v", app.Name, level, f.Name, i, ir.InstrString(f, in), got, want)
					}
				}
			}
		}
	}
}

// An instruction keeps 32-bit operands and no call payload: a call's
// callee and arguments sit in its function's Calls. Lowering NPB MG
// holds about two thousand of them per variant.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(ir.Instr{}); got > 80 {
		t.Fatalf("ir.Instr is %d bytes, want <= 80", got)
	}
}
