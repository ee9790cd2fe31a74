// Package inst2vec learns distributed representations of IR statements in
// the spirit of Ben-Nun et al.'s inst2vec (NeurIPS 2018): instructions are
// canonicalized into identifier-free tokens and a skip-gram model with
// negative sampling is trained over their contextual flow (the linear
// instruction stream per function). The resulting vectors are the
// static/semantic part of each CU's node features.
//
// The paper uses the published pretrained embedding; an offline stdlib
// build trains its own on the corpus at hand, which is the faithful
// analogue because only the geometry of the space matters downstream.
package inst2vec

import (
	"math"
	"math/rand"

	"mvpar/internal/cu"
	"mvpar/internal/ir"
	"mvpar/internal/tensor"
)

// Canonicalize maps an instruction to its vocabulary token: the opcode,
// the value type, and the operand shape, with register numbers and
// variable identities abstracted away (inst2vec's identifier removal).
// Tokens of known ops come from a table built once, so it does not
// allocate.
func Canonicalize(in ir.Instr) string {
	if int(in.Op) < len(tokens) {
		return tokens[in.Op][b2i(in.Idx >= 0)][b2i(in.Float)]
	}
	return canonical(in)
}

// tokens[op][elem][float] is canonical's token for every known op.
var tokens = func() (t [ir.OpLoopEnd + 1][2][2]string) {
	for op := range t {
		for elem := range t[op] {
			for float := range t[op][elem] {
				t[op][elem][float] = canonical(ir.Instr{Op: ir.Op(op), Idx: int32(elem - 1), Float: float == 1})
			}
		}
	}
	return t
}()

func canonical(in ir.Instr) string {
	ty := "i64"
	if in.Float {
		ty = "double"
	}
	switch in.Op {
	case ir.OpConst:
		return "const " + ty
	case ir.OpLoad:
		if in.Idx >= 0 {
			return "load " + ty + " elem"
		}
		return "load " + ty + " scalar"
	case ir.OpStore:
		if in.Idx >= 0 {
			return "store " + ty + " elem"
		}
		return "store " + ty + " scalar"
	case ir.OpCall:
		return "call"
	case ir.OpRet:
		return "ret"
	case ir.OpBr:
		return "br"
	case ir.OpCBr:
		return "cbr"
	case ir.OpLoopBegin:
		return "loop.begin"
	case ir.OpLoopNext:
		return "loop.next"
	case ir.OpLoopEnd:
		return "loop.end"
	default:
		return in.Op.String() + " " + ty
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Vocab maps tokens to dense indices.
type Vocab struct {
	Index map[string]int
	List  []string
	Count []int // corpus frequency, used for negative sampling
}

// BuildVocab scans programs and collects every token with its frequency.
func BuildVocab(progs []*ir.Program) *Vocab {
	v := &Vocab{Index: map[string]int{}}
	for _, p := range progs {
		for _, f := range p.Funcs {
			for _, in := range f.Code {
				tok := Canonicalize(in)
				if _, ok := v.Index[tok]; !ok {
					v.Index[tok] = len(v.List)
					v.List = append(v.List, tok)
					v.Count = append(v.Count, 0)
				}
				v.Count[v.Index[tok]]++
			}
		}
	}
	return v
}

// Size returns the vocabulary size.
func (v *Vocab) Size() int { return len(v.List) }

// Config controls embedding training.
type Config struct {
	Dim       int     // embedding dimension
	Window    int     // context window radius
	Negatives int     // negative samples per positive pair
	Epochs    int     // passes over the corpus
	LR        float64 // initial learning rate (linearly decayed)
	Seed      int64
}

// DefaultConfig is sized for the built-in corpus: quick to train and
// expressive enough for ~40 distinct tokens.
var DefaultConfig = Config{Dim: 16, Window: 2, Negatives: 4, Epochs: 5, LR: 0.05, Seed: 1}

// Embedding is a trained inst2vec space.
type Embedding struct {
	Vocab   *Vocab
	Dim     int
	Vectors *tensor.Matrix // V x Dim input vectors
}

// Train builds the vocabulary over progs and trains skip-gram with
// negative sampling on the per-function instruction streams.
func Train(progs []*ir.Program, cfg Config) *Embedding {
	if cfg.Dim <= 0 {
		cfg = DefaultConfig
	}
	vocab := BuildVocab(progs)
	rng := rand.New(rand.NewSource(cfg.Seed))
	v := vocab.Size()
	win := tensor.Randn(v, cfg.Dim, 0.5/float64(cfg.Dim), rng)
	wout := tensor.New(v, cfg.Dim)

	// Token streams, one per function.
	var streams [][]int
	for _, p := range progs {
		for _, f := range p.Funcs {
			stream := make([]int, 0, len(f.Code))
			for _, in := range f.Code {
				stream = append(stream, vocab.Index[Canonicalize(in)])
			}
			streams = append(streams, stream)
		}
	}

	// Unigram^0.75 negative-sampling table.
	table := buildSamplingTable(vocab, rng)

	pairs := 0
	for _, s := range streams {
		pairs += len(s) * 2 * cfg.Window
	}
	totalSteps := float64(cfg.Epochs * pairs)
	step := 0.0
	grad := make([]float64, cfg.Dim)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, stream := range streams {
			for i, center := range stream {
				for off := -cfg.Window; off <= cfg.Window; off++ {
					j := i + off
					if off == 0 || j < 0 || j >= len(stream) {
						continue
					}
					lr := cfg.LR * (1 - step/totalSteps)
					if lr < cfg.LR*0.01 {
						lr = cfg.LR * 0.01
					}
					step++
					trainPair(win, wout, center, stream[j], 1, lr, grad)
					for n := 0; n < cfg.Negatives; n++ {
						neg := table[rng.Intn(len(table))]
						if neg == stream[j] {
							continue
						}
						trainPair(win, wout, center, neg, 0, lr, grad)
					}
				}
			}
		}
	}
	return &Embedding{Vocab: vocab, Dim: cfg.Dim, Vectors: win}
}

func buildSamplingTable(v *Vocab, rng *rand.Rand) []int {
	const tableSize = 4096
	weights := make([]float64, v.Size())
	total := 0.0
	for i, c := range v.Count {
		weights[i] = math.Pow(float64(c), 0.75)
		total += weights[i]
	}
	table := make([]int, 0, tableSize)
	for i, w := range weights {
		n := int(w / total * tableSize)
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			table = append(table, i)
		}
	}
	rng.Shuffle(len(table), func(i, j int) { table[i], table[j] = table[j], table[i] })
	return table
}

// trainPair applies one SGNS update: label 1 for a true context pair,
// 0 for a negative sample.
func trainPair(win, wout *tensor.Matrix, center, context int, label float64, lr float64, grad []float64) {
	vc := win.Row(center)
	uo := wout.Row(context)
	dot := 0.0
	for i := range vc {
		dot += vc[i] * uo[i]
	}
	p := 1 / (1 + math.Exp(-dot))
	g := (p - label) * lr
	for i := range vc {
		grad[i] = g * uo[i]
		uo[i] -= g * vc[i]
	}
	for i := range vc {
		vc[i] -= grad[i]
	}
}

// Vector returns the embedding of a token, or a zero vector for tokens
// outside the vocabulary.
func (e *Embedding) Vector(token string) []float64 {
	if i, ok := e.Vocab.Index[token]; ok {
		return e.Vectors.Row(i)
	}
	return make([]float64, e.Dim)
}

// InstrVector embeds a single instruction.
func (e *Embedding) InstrVector(in ir.Instr) []float64 {
	return e.Vector(Canonicalize(in))
}

// CUVector embeds a computational unit as the mean of its instruction
// vectors — the statement-level representation the node-feature view
// consumes.
func (e *Embedding) CUVector(c *cu.CU) []float64 {
	out := make([]float64, e.Dim)
	if len(c.Instrs) == 0 {
		return out
	}
	for _, in := range c.Instrs {
		v := e.InstrVector(in)
		for i := range out {
			out[i] += v[i]
		}
	}
	inv := 1 / float64(len(c.Instrs))
	for i := range out {
		out[i] *= inv
	}
	return out
}
