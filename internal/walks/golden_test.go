package walks_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"mvpar/internal/bench"
	"mvpar/internal/cu"
	"mvpar/internal/deps"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
	"mvpar/internal/peg"
	"mvpar/internal/walks"
)

// npbSubPEGs returns the sub-PEG of every loop of every NPB corpus
// program, in corpus then loop-ID order, with a per-loop RNG seed.
func npbSubPEGs(t testing.TB) ([]*peg.SubPEG, []int64) {
	t.Helper()
	var subs []*peg.SubPEG
	var seeds []int64
	for ai, app := range bench.Corpus() {
		if app.Suite != "NPB" {
			continue
		}
		prog := ir.MustLower(minic.MustParse(app.Name, app.Source))
		res, _, err := deps.Analyze(prog, "main", interp.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		for _, sub := range peg.Build(prog, cu.Build(prog), res).ExtractAll() {
			subs = append(subs, sub)
			seeds = append(seeds, int64(ai)<<16|int64(sub.LoopID))
		}
	}
	return subs, seeds
}

// TestNodeDistributionsGolden pins the float64 bits of the walk-type
// distributions of every NPB sub-PEG, so any change to neighbour order,
// the RNG draw sequence or type indexing shows up as a hash mismatch.
func TestNodeDistributionsGolden(t *testing.T) {
	const (
		wantGraphs = 787
		wantHash   = uint64(0x1ba0d3a4013d63f)
	)
	subs, seeds := npbSubPEGs(t)
	s := walks.NewSpace(4)
	p := walks.Params{Length: 4, Gamma: 12}
	h := fnv.New64a()
	var buf [8]byte
	for i, sub := range subs {
		d := s.NodeDistributions(sub.G, p, rand.New(rand.NewSource(seeds[i])))
		for _, v := range d.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	if len(subs) != wantGraphs || h.Sum64() != wantHash {
		t.Fatalf("%d sub-PEGs, hash %#x; want %d, %#x", len(subs), h.Sum64(), wantGraphs, wantHash)
	}
}
