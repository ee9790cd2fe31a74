package dataset_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"mvpar/internal/bench"
	"mvpar/internal/dataset"
	"mvpar/internal/inst2vec"
	"mvpar/internal/tools"
	"mvpar/internal/walks"
)

func smallApps() []bench.App {
	return []bench.App{
		{Name: "alpha", Suite: "NPB", TargetLoops: 4, Source: `
float a[8];
float b[8];
float s;
void main() {
    for (int i = 0; i < 8; i++) { a[i] = i * (2 + 3); }
    for (int i = 0; i < 8; i++) { b[i] = a[i] * 2.0; }
    for (int i = 0; i < 8; i++) { s += b[i]; }
    for (int i = 1; i < 8; i++) { a[i] = a[i - 1] + 1.0; }
}
`},
		{Name: "beta", Suite: "PolyBench", TargetLoops: 2, Source: `
float M[6][6];
void main() {
    for (int i = 1; i < 5; i++) {
        for (int j = 1; j < 5; j++) {
            M[i][j] = M[i - 1][j] + M[i][j - 1];
        }
    }
}
`},
	}
}

func smallConfig() dataset.Config {
	return dataset.Config{
		Variants:   3,
		WalkParams: walks.Params{Length: 4, Gamma: 8},
		WalkLen:    4,
		EmbedCfg:   inst2vec.Config{Dim: 8, Window: 2, Negatives: 2, Epochs: 2, LR: 0.05, Seed: 1},
		Seed:       1,
	}
}

func TestBuildRecordCountsAndLabels(t *testing.T) {
	d, _, err := dataset.Build(smallApps(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// alpha: 4 loops, beta: 2 loops, 3 variants each.
	if len(d.Records) != (4+2)*3 {
		t.Fatalf("records = %d, want 18", len(d.Records))
	}
	labels := map[string]map[int]int{}
	for _, r := range d.Records {
		if r.Label != 0 && r.Label != 1 {
			t.Fatalf("bad label %d", r.Label)
		}
		if (r.Label == 1) != r.Verdict.Parallelizable {
			t.Fatal("label disagrees with verdict")
		}
		if labels[r.Meta.Program] == nil {
			labels[r.Meta.Program] = map[int]int{}
		}
		if prev, ok := labels[r.Meta.Program][r.Meta.LoopID]; ok && prev != r.Label {
			t.Fatal("label differs across variants of the same loop")
		}
		labels[r.Meta.Program][r.Meta.LoopID] = r.Label
	}
	// alpha: loops 1-3 parallelizable, loop 4 is a recurrence.
	a := labels["alpha"]
	if a[1] != 1 || a[2] != 1 || a[3] != 1 || a[4] != 0 {
		t.Fatalf("alpha labels = %v", a)
	}
	// beta: wavefront, both loops sequential.
	b := labels["beta"]
	if b[1] != 0 || b[2] != 0 {
		t.Fatalf("beta labels = %v", b)
	}
}

func TestEncodedDimensions(t *testing.T) {
	d, _, err := dataset.Build(smallApps(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.NodeDim != dataset.NodeDimFor(8) {
		t.Fatalf("NodeDim = %d", d.NodeDim)
	}
	if d.StructDim != dataset.StructDimFor(d.Space) {
		t.Fatalf("StructDim = %d", d.StructDim)
	}
	for _, r := range d.Records {
		if r.Sample.Node.X.Cols != d.NodeDim {
			t.Fatalf("node features %d cols", r.Sample.Node.X.Cols)
		}
		if r.Sample.Struct.X.Cols != d.StructDim {
			t.Fatalf("struct features %d cols", r.Sample.Struct.X.Cols)
		}
		if r.Sample.Node.N != r.Sample.Struct.N {
			t.Fatal("view node counts differ")
		}
		if r.Tokens != nil || r.Tools != nil {
			t.Fatalf("record %v: Build filled the baseline inputs", r.Meta)
		}
	}
}

// TestAddBaselineInputs checks the baseline inputs Build leaves out: every
// record gets a token stream and the three tool decisions, DiscoPoP's
// equal to the rule over the record's verdict.
func TestAddBaselineInputs(t *testing.T) {
	d, _, err := dataset.Build(smallApps(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AddBaselineInputs(smallApps(), d.Records, smallConfig()); err != nil {
		t.Fatal(err)
	}
	for _, r := range d.Records {
		if len(r.Tokens) == 0 || len(r.Tokens) > dataset.DefaultConfig.MaxTokens {
			t.Fatalf("record %v has %d tokens", r.Meta, len(r.Tokens))
		}
		if len(r.Tools) != 3 || r.Tools[tools.NameDiscoPoP] != b2i(tools.DiscoPoPRule(r.Verdict)) {
			t.Fatalf("record %v tools %v", r.Meta, r.Tools)
		}
	}
	// alpha's recurrence (loop 4) is not affine-parallel; its first loop is.
	for _, r := range d.Records {
		if r.Meta.Program == "alpha" && r.Meta.LoopID == 1 && r.Tools[tools.NamePluto] != 1 {
			t.Fatalf("alpha loop 1: Pluto %d, want 1", r.Tools[tools.NamePluto])
		}
		if r.Meta.Program == "alpha" && r.Meta.LoopID == 4 && r.Tools[tools.NamePluto] != 0 {
			t.Fatalf("alpha loop 4: Pluto %d, want 0", r.Tools[tools.NamePluto])
		}
	}
	if err := dataset.AddBaselineInputs(smallApps()[:1], d.Records, smallConfig()); err == nil {
		t.Fatal("records of a program missing from apps: no error")
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestVariantsChangeTokens(t *testing.T) {
	d, _, err := dataset.Build(smallApps(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AddBaselineInputs(smallApps(), d.Records, smallConfig()); err != nil {
		t.Fatal(err)
	}
	// Find the same loop across variants; at least one variant pair must
	// differ in token stream (the transforms change the instruction mix).
	byKey := map[string][][]string{}
	for _, r := range d.Records {
		k := r.Meta.Program + string(rune('0'+r.Meta.LoopID))
		byKey[k] = append(byKey[k], r.Tokens)
	}
	anyDiff := false
	for _, seqs := range byKey {
		for i := 1; i < len(seqs); i++ {
			if len(seqs[i]) != len(seqs[0]) {
				anyDiff = true
				continue
			}
			for j := range seqs[i] {
				if seqs[i][j] != seqs[0][j] {
					anyDiff = true
					break
				}
			}
		}
	}
	if !anyDiff {
		t.Fatal("IR variants produced identical token streams everywhere")
	}
}

func TestBalanced(t *testing.T) {
	d, _, err := dataset.Build(smallApps(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := dataset.Balance(d.Records, 0, 7)
	pos, neg := 0, 0
	for _, r := range recs {
		if r.Label == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos != neg || pos == 0 {
		t.Fatalf("balance: %d/%d", pos, neg)
	}
	if got := dataset.Balance(d.Records, 2, 7); len(got) != 4 {
		t.Fatalf("Balance(2) = %d records", len(got))
	}
}

func TestSplitNoCommonObjects(t *testing.T) {
	d, _, err := dataset.Build(smallApps(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	train, test := dataset.Split(d.Records, 0.75, 3)
	if len(train)+len(test) != len(d.Records) {
		t.Fatalf("split loses records: %d + %d != %d", len(train), len(test), len(d.Records))
	}
	if len(train) == 0 || len(test) == 0 {
		t.Fatal("degenerate split")
	}
	inTrain := map[string]bool{}
	for _, r := range train {
		inTrain[r.Meta.Program+"#"+itoa(r.Meta.LoopID)] = true
	}
	for _, r := range test {
		if inTrain[r.Meta.Program+"#"+itoa(r.Meta.LoopID)] {
			t.Fatal("same loop object appears in train and test")
		}
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

func TestSamplesAndBySuite(t *testing.T) {
	d, _, err := dataset.Build(smallApps(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples := dataset.Samples(d.Records)
	if len(samples) != len(d.Records) {
		t.Fatal("sample count mismatch")
	}
	suites := dataset.BySuite(d.Records)
	if len(suites["NPB"]) != 12 || len(suites["PolyBench"]) != 6 {
		t.Fatalf("suite grouping: NPB=%d Poly=%d", len(suites["NPB"]), len(suites["PolyBench"]))
	}
}

func TestDeterministicBuild(t *testing.T) {
	d1, _, err := dataset.Build(smallApps(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := dataset.Build(smallApps(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1.Records {
		a, b := d1.Records[i], d2.Records[i]
		if a.Label != b.Label || a.Meta != b.Meta {
			t.Fatal("records differ between identical builds")
		}
		for j := range a.Sample.Struct.X.Data {
			if a.Sample.Struct.X.Data[j] != b.Sample.Struct.X.Data[j] {
				t.Fatal("struct encodings differ between identical builds")
			}
		}
	}
}

func TestExportJSON(t *testing.T) {
	d, _, err := dataset.Build(smallApps(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.AddBaselineInputs(smallApps(), d.Records, smallConfig()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.Export(&buf, d.Records); err != nil {
		t.Fatal(err)
	}
	var out []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(out) != len(d.Records) {
		t.Fatalf("exported %d records, want %d", len(out), len(d.Records))
	}
	first := out[0]
	for _, key := range []string{"program", "suite", "loop_id", "label", "pattern", "features", "tools"} {
		if _, ok := first[key]; !ok {
			t.Fatalf("export missing key %q: %v", key, first)
		}
	}
	if n := len(first["tools"].(map[string]interface{})); n != 3 || first["token_count"].(float64) == 0 {
		t.Fatalf("export has %d tools and %v tokens", n, first["token_count"])
	}
	feats := first["features"].(map[string]interface{})
	if _, ok := feats["esp"]; !ok {
		t.Fatalf("features missing esp: %v", feats)
	}
}

func TestKFold(t *testing.T) {
	d, _, err := dataset.Build(smallApps(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	folds := dataset.KFold(d.Records, 3, 1)
	if len(folds) != 3 {
		t.Fatalf("folds = %d", len(folds))
	}
	totalTest := 0
	seenTest := map[*dataset.Record]bool{}
	for _, f := range folds {
		train, test := f[0], f[1]
		if len(train)+len(test) != len(d.Records) {
			t.Fatalf("fold sizes %d + %d != %d", len(train), len(test), len(d.Records))
		}
		inTrain := map[string]bool{}
		for _, r := range train {
			inTrain[r.Meta.Program+"#"+itoa(r.Meta.LoopID)] = true
		}
		for _, r := range test {
			if inTrain[r.Meta.Program+"#"+itoa(r.Meta.LoopID)] {
				t.Fatal("loop object straddles train and test within a fold")
			}
			if seenTest[r] {
				t.Fatal("record appears in multiple test folds")
			}
			seenTest[r] = true
			totalTest++
		}
	}
	if totalTest != len(d.Records) {
		t.Fatalf("test folds cover %d records, want %d", totalTest, len(d.Records))
	}
}

func TestLabelNoiseRateAndConsistency(t *testing.T) {
	cfg := smallConfig()
	cfg.LabelNoise = 0.5 // large rate so the small corpus shows flips
	d, _, err := dataset.Build(smallApps(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	byLoop := map[string]int{}
	for _, r := range d.Records {
		if (r.Label == 1) != r.Verdict.Parallelizable {
			flips++
		}
		k := r.Meta.Program + "#" + itoa(r.Meta.LoopID)
		if prev, ok := byLoop[k]; ok && prev != r.Label {
			t.Fatal("noise flipped variants of the same loop inconsistently")
		}
		byLoop[k] = r.Label
	}
	if flips == 0 {
		t.Fatal("50% noise produced zero flips")
	}
	// Pattern labels stay oracle-exact regardless of noise.
	for _, r := range d.Records {
		wantPattern := dataset.PatternSequential
		if r.Verdict.Parallelizable {
			wantPattern = dataset.PatternDoAll
			if r.Verdict.HasReduction {
				wantPattern = dataset.PatternReduction
			}
		}
		if r.Pattern != wantPattern {
			t.Fatalf("pattern %d disagrees with verdict %+v", r.Pattern, r.Verdict)
		}
	}
}

func TestPatternSamplesAndBalance(t *testing.T) {
	d, _, err := dataset.Build(smallApps(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps := dataset.PatternSamples(d.Records)
	for i, s := range ps {
		if s.Label != d.Records[i].Pattern {
			t.Fatal("pattern sample label mismatch")
		}
	}
	balanced := dataset.BalanceByPattern(d.Records, 0, 1)
	counts := map[int]int{}
	for _, r := range balanced {
		counts[r.Pattern]++
	}
	if len(counts) < 2 {
		t.Fatalf("pattern balance degenerate: %v", counts)
	}
	first := -1
	for _, c := range counts {
		if first == -1 {
			first = c
		}
		if c != first {
			t.Fatalf("pattern classes unbalanced: %v", counts)
		}
	}
}

func TestStaticNodeSamplesZeroDynamics(t *testing.T) {
	d, _, err := dataset.Build(smallApps(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	static := dataset.StaticNodeSamples(d.Records)
	for i, s := range static {
		orig := d.Records[i].Sample.Node
		if s.Node.N != orig.N {
			t.Fatal("static sample changed node count")
		}
		for row := 0; row < s.Node.X.Rows; row++ {
			vals := s.Node.X.Row(row)
			for j := s.Node.X.Cols - 7; j < s.Node.X.Cols; j++ {
				if vals[j] != 0 {
					t.Fatalf("dynamic feature column %d not zeroed", j)
				}
			}
		}
		// The original must be untouched (clone, not alias).
		anyNonZero := false
		for row := 0; row < orig.X.Rows && !anyNonZero; row++ {
			vals := orig.X.Row(row)
			for j := orig.X.Cols - 7; j < orig.X.Cols; j++ {
				if vals[j] != 0 {
					anyNonZero = true
					break
				}
			}
		}
		if !anyNonZero && i == 0 {
			t.Log("note: record 0's dynamics are all zero after standardization; acceptable")
		}
	}
}
