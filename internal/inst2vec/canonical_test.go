package inst2vec

import (
	"testing"

	"mvpar/internal/ir"
)

// TestCanonicalizeMatchesCanonical checks the token table against the
// string-building canonical for every op, type and operand shape (and an
// op past the known ones), and that a token costs no allocation.
func TestCanonicalizeMatchesCanonical(t *testing.T) {
	for op := ir.OpConst; op <= ir.OpLoopEnd+1; op++ {
		for _, float := range []bool{false, true} {
			for _, idx := range []int32{-1, 0, 3} {
				in := ir.Instr{Op: op, Float: float, Idx: idx}
				if got, want := Canonicalize(in), canonical(in); got != want {
					t.Fatalf("%+v: %q, want %q", in, got, want)
				}
			}
		}
	}
	in := ir.Instr{Op: ir.OpMul, Float: true, Idx: -1}
	if n := testing.AllocsPerRun(100, func() { Canonicalize(in) }); n != 0 {
		t.Fatalf("Canonicalize allocates %v times", n)
	}
}
