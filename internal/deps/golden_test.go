package deps_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"testing"

	"mvpar/internal/bench"
	"mvpar/internal/deps"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
)

// writeResult writes a canonical text form of a Result: edges in their
// sorted order with every field, verdicts in loop-ID order with reasons
// and detail, and the per-loop iteration and instance counts.
func writeResult(w io.Writer, res *deps.Result) {
	for _, e := range res.Edges {
		fmt.Fprintf(w, "E %+v\n", e)
	}
	var ids []int
	for id := range res.Verdicts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "V %+v\n", res.Verdicts[id])
	}
	for _, m := range []map[int]int64{res.Iterations, res.Instances} {
		ids = ids[:0]
		for id := range m {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(w, "C %d %d\n", id, m[id])
		}
	}
}

// TestAnalyzeCorpusGolden pins the oracle's full output over every corpus
// program: any change to an edge, a distance, a verdict or its reasons
// shows up as a hash mismatch.
func TestAnalyzeCorpusGolden(t *testing.T) {
	const wantHash = uint64(0x8cfe1916c7b67af3)
	h := fnv.New64a()
	for _, app := range bench.Corpus() {
		prog := ir.MustLower(minic.MustParse(app.Name, app.Source))
		res, _, err := deps.Analyze(prog, "main", interp.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		fmt.Fprintf(h, "P %s\n", app.Name)
		writeResult(h, res)
	}
	if h.Sum64() != wantHash {
		t.Fatalf("corpus result hash %#x, want %#x", h.Sum64(), wantHash)
	}
}
