package minic

import (
	"strings"
	"testing"
)

const sampleSrc = `
float A[16][16];
float x[16];
float y[16];
int n = 16;

void matvec() {
    for (int i = 0; i < n; i++) {
        float s = 0.0;
        for (int j = 0; j < n; j++) {
            s += A[i][j] * x[j];
        }
        y[i] = s;
    }
}

int fib(int k) {
    if (k < 2) {
        return k;
    }
    return fib(k - 1) + fib(k - 2);
}

void main() {
    matvec();
    int r = fib(10);
}
`

func TestLexBasics(t *testing.T) {
	toks, err := Lex("for (int i = 0; i <= 9; i++) { x += 1.5e2; } // cmt\n/* block */ y")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		kinds = append(kinds, tok.Text)
	}
	want := []string{"for", "(", "int", "i", "=", "0", ";", "i", "<=", "9", ";", "i", "++", ")",
		"{", "x", "+=", "1.5e2", ";", "}", "y"}
	if len(kinds) != len(want) {
		t.Fatalf("token texts = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, kinds[i], want[i])
		}
	}
}

func TestLexLineNumbers(t *testing.T) {
	toks, err := Lex("a\nb\n\nc")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[1].Line != 2 || toks[2].Line != 4 {
		t.Fatalf("lines = %d %d %d", toks[0].Line, toks[1].Line, toks[2].Line)
	}
}

func TestLexIllegalChar(t *testing.T) {
	if _, err := Lex("a $ b"); err == nil {
		t.Fatal("expected error for illegal character")
	}
}

func TestParseSampleProgram(t *testing.T) {
	prog, err := Parse("sample", sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Globals) != 4 {
		t.Fatalf("globals = %d, want 4", len(prog.Globals))
	}
	if len(prog.Funcs) != 3 {
		t.Fatalf("funcs = %d, want 3", len(prog.Funcs))
	}
	a := prog.Globals[0]
	if a.Name != "A" || len(a.Dims) != 2 || a.Dims[0] != 16 || a.Dims[0]*a.Dims[1] != 256 {
		t.Fatalf("global A = %+v", a)
	}
	if prog.Func("fib") == nil || prog.Func("nonexistent") != nil {
		t.Fatal("Func lookup wrong")
	}
	loops := prog.Loops()
	if len(loops) != 2 {
		t.Fatalf("loops = %+v, want 2", loops)
	}
	if loops[0].Depth != 0 || loops[1].Depth != 1 {
		t.Fatalf("loop depths = %+v", loops)
	}
	if loops[0].Func != "matvec" {
		t.Fatalf("loop func = %q", loops[0].Func)
	}
	if loops[0].ID == loops[1].ID {
		t.Fatal("loop IDs not unique")
	}
}

func TestParsePrecedence(t *testing.T) {
	prog, err := Parse("p", "int f(int a, int b, int c) { return a + b * c; }")
	if err != nil {
		t.Fatal(err)
	}
	ret := prog.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	bin := ret.Value.(*BinaryExpr)
	if bin.Op != "+" {
		t.Fatalf("top op = %q, want +", bin.Op)
	}
	if inner, ok := bin.Y.(*BinaryExpr); !ok || inner.Op != "*" {
		t.Fatalf("rhs = %#v", bin.Y)
	}
}

func TestParseIncDecSugar(t *testing.T) {
	prog, err := Parse("p", "void f() { int i = 0; i++; i--; }")
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Funcs[0].Body.Stmts
	inc := body[1].(*AssignStmt)
	dec := body[2].(*AssignStmt)
	if inc.Op != "+=" || dec.Op != "-=" {
		t.Fatalf("ops = %q %q", inc.Op, dec.Op)
	}
}

func TestParseWhileAndIfElse(t *testing.T) {
	prog, err := Parse("p", `void f() {
		int i = 0;
		while (i < 10) { if (i > 5) { i += 2; } else { i += 1; } }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	loops := prog.Loops()
	if len(loops) != 1 {
		t.Fatalf("loops = %+v", loops)
	}
	w := prog.Funcs[0].Body.Stmts[1].(*WhileStmt)
	ifs := w.Body.Stmts[0].(*IfStmt)
	if ifs.Else == nil {
		t.Fatal("else branch missing")
	}
}

func TestParseSingleStmtBodiesBecomeBlocks(t *testing.T) {
	prog, err := Parse("p", "void f() { for (int i = 0; i < 3; i++) i += 0; }")
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Funcs[0].Body.Stmts[0].(*ForStmt)
	if loop.Body == nil || len(loop.Body.Stmts) != 1 {
		t.Fatalf("for body = %+v", loop.Body)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int x",                        // missing semicolon
		"void f() { return 1 }",        // missing semicolon
		"void f() { x[1][2][3] = 0; }", // rank > 2
		"float A[0]; ",                 // zero array size
		"void f( { }",                  // bad params
		"void f() { for (;;) }",        // missing body
		"void f() { 1 + 2; }",          // expression statement must be a call
		"int g; void f() { g = ; }",    // missing rhs
		"void f() { if i < 2 { } }",    // missing parens
		"garbage",                      // no type at top level
	}
	for _, src := range cases {
		if _, err := Parse("bad", src); err == nil {
			t.Fatalf("expected parse error for %q", src)
		}
	}
}

func TestCheckAcceptsSample(t *testing.T) {
	prog := MustParse("sample", sampleSrc)
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"undeclared", "void f() { x = 1; }"},
		{"rank-mismatch", "float A[4]; void f() { A[1][2] = 0.0; }"},
		{"scalar-indexed", "int x; void f() { x[0] = 1; }"},
		{"float-index", "float A[4]; float t; void f() { A[t] = 1.0; }"},
		{"mod-float", "float t; void f() { t %= 2; }"},
		{"mod-float-expr", "float t; int i; void f() { i = t % 2; }"},
		{"undefined-call", "void f() { g(); }"},
		{"arity", "void g(int a) { } void f() { g(); }"},
		{"void-var", "void x; "},
		{"dup-decl", "int x; int x;"},
		{"dup-func", "void f() { } void f() { }"},
		{"void-return-value", "void f() { return 3; }"},
		{"missing-return-value", "int f() { return; }"},
		{"array-arg-not-name", "void g(float a[4]) { } float A[4]; void f() { g(A[0]); }"},
		{"array-rank-arg", "void g(float a[4]) { } float B[4][4]; void f() { g(B); }"},
	}
	for _, tc := range cases {
		prog, err := Parse(tc.name, tc.src)
		if err != nil {
			t.Fatalf("%s: parse failed: %v", tc.name, err)
		}
		if err := Check(prog); err == nil {
			t.Fatalf("%s: expected check error", tc.name)
		}
	}
}

func TestCheckArrayArgs(t *testing.T) {
	src := `
float A[8];
void scale(float v[8], int n) {
    for (int i = 0; i < n; i++) {
        v[i] *= 2.0;
    }
}
void main() { scale(A, 8); }
`
	prog := MustParse("arrarg", src)
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
}

// Round trip: print then re-parse, and compare the second print against the
// first. Equal pretty-printed forms imply equivalent ASTs.
func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		sampleSrc,
		"int x = 3;\nvoid f() { x = -x + 2 * (x - 1); }",
		"float v[4];\nvoid f() { for (int i = 0; i < 4; i++) { if (i % 2 == 0) { v[i] = 1.0; } else { v[i] = 2.5; } } }",
		"void f() { int i = 0; while (i < 4 && i != 3) { i++; } }",
		"int g(int a) { return a; } void f() { int r = g(1) + g(2); }",
	}
	for _, src := range srcs {
		p1 := MustParse("rt", src)
		out1 := Print(p1)
		p2, err := Parse("rt2", out1)
		if err != nil {
			t.Fatalf("re-parse failed: %v\nsource:\n%s", err, out1)
		}
		out2 := Print(p2)
		if out1 != out2 {
			t.Fatalf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
		}
	}
}

func TestPrintContainsStructure(t *testing.T) {
	prog := MustParse("sample", sampleSrc)
	out := Print(prog)
	for _, want := range []string{"float A[16][16]", "for (int j = 0", "s += (A[i][j] * x[j])", "return (fib"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printed output missing %q:\n%s", want, out)
		}
	}
}

func TestMustParsePanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic")
		}
	}()
	MustParse("bad", "not a program")
}
