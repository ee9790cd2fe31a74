package inst2vec_test

import (
	"math"
	"testing"

	"mvpar/internal/cu"
	"mvpar/internal/inst2vec"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
)

func corpus(t *testing.T) []*ir.Program {
	t.Helper()
	srcs := []string{
		`
float a[16]; float b[16]; float s;
void main() {
    for (int i = 0; i < 16; i++) { a[i] = b[i] * 2.0 + 1.0; }
    for (int i = 0; i < 16; i++) { s += a[i]; }
}
`,
		`
float A[8][8]; float x[8]; float y[8];
void main() {
    for (int i = 0; i < 8; i++) {
        float acc = 0.0;
        for (int j = 0; j < 8; j++) { acc += A[i][j] * x[j]; }
        y[i] = acc;
    }
}
`,
		`
int out;
int fib(int k) {
    if (k < 2) { return k; }
    return fib(k - 1) + fib(k - 2);
}
void main() { out = fib(8); }
`,
	}
	var progs []*ir.Program
	for i, s := range srcs {
		progs = append(progs, ir.MustLower(minic.MustParse("p", s)))
		_ = i
	}
	return progs
}

func TestCanonicalizeAbstractsIdentifiers(t *testing.T) {
	a := inst2vec.Canonicalize(ir.Instr{Op: ir.OpLoad, Var: "foo", Idx: 3, Float: true, Dst: 7})
	b := inst2vec.Canonicalize(ir.Instr{Op: ir.OpLoad, Var: "bar", Idx: 9, Float: true, Dst: 2})
	if a != b || a != "load double elem" {
		t.Fatalf("canonical forms differ: %q vs %q", a, b)
	}
	s := inst2vec.Canonicalize(ir.Instr{Op: ir.OpLoad, Var: "x", Idx: -1, Float: false})
	if s != "load i64 scalar" {
		t.Fatalf("scalar load = %q", s)
	}
	add := inst2vec.Canonicalize(ir.Instr{Op: ir.OpAdd, Float: true})
	if add != "add double" {
		t.Fatalf("add = %q", add)
	}
}

func TestVocabCoversCorpus(t *testing.T) {
	progs := corpus(t)
	v := inst2vec.BuildVocab(progs)
	if v.Size() < 10 {
		t.Fatalf("vocab size = %d, suspiciously small", v.Size())
	}
	for _, p := range progs {
		for _, f := range p.Funcs {
			for _, in := range f.Code {
				tok := inst2vec.Canonicalize(in)
				if _, ok := v.Index[tok]; !ok {
					t.Fatalf("token %q missing from vocab", tok)
				}
			}
		}
	}
	total := 0
	for _, c := range v.Count {
		if c <= 0 {
			t.Fatal("zero-count token in vocab")
		}
		total += c
	}
	if total == 0 {
		t.Fatal("empty corpus")
	}
}

func TestTrainProducesFiniteVectors(t *testing.T) {
	emb := inst2vec.Train(corpus(t), inst2vec.Config{Dim: 8, Window: 2, Negatives: 3, Epochs: 3, LR: 0.05, Seed: 1})
	if emb.Dim != 8 {
		t.Fatalf("dim = %d", emb.Dim)
	}
	for _, tok := range emb.Vocab.List {
		v := emb.Vector(tok)
		norm := 0.0
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("non-finite embedding for %q", tok)
			}
			norm += x * x
		}
		if norm == 0 {
			t.Fatalf("zero embedding for %q", tok)
		}
	}
}

func TestUnknownTokenZeroVector(t *testing.T) {
	emb := inst2vec.Train(corpus(t), inst2vec.DefaultConfig)
	v := emb.Vector("no such token")
	for _, x := range v {
		if x != 0 {
			t.Fatal("unknown token must embed to zero")
		}
	}
}

func TestContextualSimilarity(t *testing.T) {
	// Tokens that appear in interchangeable contexts (float loads of array
	// elements vs float multiplication — both inner-loop arithmetic
	// neighbours) should be closer than structurally unrelated tokens
	// (element load vs ret).
	emb := inst2vec.Train(corpus(t), inst2vec.Config{Dim: 16, Window: 2, Negatives: 4, Epochs: 20, LR: 0.05, Seed: 3})
	simArith := similarity(emb, "load double elem", "mul double")
	simCtl := similarity(emb, "load double elem", "ret")
	if simArith <= simCtl {
		t.Fatalf("load/mul similarity %v is not above load/ret similarity %v", simArith, simCtl)
	}
	if s := similarity(emb, "mul double", "mul double"); math.Abs(s-1) > 1e-9 {
		t.Fatalf("self-similarity = %v", s)
	}
}

// similarity is the cosine similarity between two tokens' vectors.
func similarity(e *inst2vec.Embedding, a, b string) float64 {
	va, vb := e.Vector(a), e.Vector(b)
	dot, na, nb := 0.0, 0.0, 0.0
	for i := range va {
		dot += va[i] * vb[i]
		na += va[i] * va[i]
		nb += vb[i] * vb[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

func TestCUVectorAveragesInstrs(t *testing.T) {
	progs := corpus(t)
	emb := inst2vec.Train(progs, inst2vec.DefaultConfig)
	set := cu.Build(progs[0])
	for _, c := range set.CUs {
		v := emb.CUVector(c)
		if len(v) != emb.Dim {
			t.Fatalf("CU vector dim = %d", len(v))
		}
		nonzero := false
		for _, x := range v {
			if x != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			t.Fatalf("CU %d embeds to zero", c.StmtID)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	cfg := inst2vec.Config{Dim: 8, Window: 2, Negatives: 2, Epochs: 2, LR: 0.05, Seed: 42}
	e1 := inst2vec.Train(corpus(t), cfg)
	e2 := inst2vec.Train(corpus(t), cfg)
	for i := range e1.Vectors.Data {
		if e1.Vectors.Data[i] != e2.Vectors.Data[i] {
			t.Fatal("training not deterministic for fixed seed")
		}
	}
}
