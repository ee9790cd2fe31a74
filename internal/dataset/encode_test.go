package dataset

import (
	"reflect"
	"testing"

	"mvpar/internal/bench"
	"mvpar/internal/deps"
	"mvpar/internal/inst2vec"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
	"mvpar/internal/walks"
)

// TestEncodeLeavesProgramUnchanged is what lets the encode stage share
// the lowered program as IR variant 0 instead of cloning it, while the
// other variants' jobs clone it concurrently: encoding every variant of
// every corpus program leaves the program equal to a fresh lowering.
func TestEncodeLeavesProgramUnchanged(t *testing.T) {
	cfg := DefaultConfig
	cfg.WalkParams = walks.Params{Length: 4, Gamma: 4}
	space := walks.NewSpace(4)
	for _, app := range bench.Corpus() {
		src, err := minic.Parse(app.Name, app.Source)
		if err != nil {
			t.Fatal(err)
		}
		base, err := ir.Lower(src)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ir.Lower(src)
		res, _, err := deps.Analyze(base, "main", interp.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		emb := inst2vec.Train([]*ir.Program{base}, inst2vec.Config{Dim: 4, Window: 1, Negatives: 1, Epochs: 1, LR: 0.05, Seed: 1})
		for v := 0; v < ir.NumVariants; v++ {
			encodeVariant(app, base, res, emb, space, cfg, v)
		}
		if !reflect.DeepEqual(base, want) {
			t.Fatalf("%s: encoding changed the lowered program", app.Name)
		}
	}
}
