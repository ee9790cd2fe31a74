package features_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mvpar/internal/bench"
	"mvpar/internal/cu"
	"mvpar/internal/deps"
	"mvpar/internal/features"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
)

// TestExtractStaticGolden pins the bits of every corpus loop's static
// feature vector, on the base program and on the renamed variant the
// dataset also encodes. Any change to a count, a critical path or an
// ESP estimate shows up as a hash mismatch.
func TestExtractStaticGolden(t *testing.T) {
	const wantHash = uint64(0x14353d0ad4ce8285)
	h := fnv.New64a()
	var buf [8]byte
	for _, app := range bench.Corpus() {
		base := ir.MustLower(minic.MustParse(app.Name, app.Source))
		res, _, err := deps.Analyze(base, "main", interp.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		for v := 0; v < 2; v++ {
			prog := ir.Variant(base, v)
			cus := cu.Build(prog)
			for _, id := range prog.LoopIDs() {
				for _, x := range features.ExtractStatic(prog, cus, res, id).Vector() {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
					h.Write(buf[:])
				}
			}
		}
	}
	if h.Sum64() != wantHash {
		t.Fatalf("static feature hash %#x, want %#x", h.Sum64(), wantHash)
	}
}
