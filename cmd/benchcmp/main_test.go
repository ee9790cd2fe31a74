package main

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, log string) map[string]*series {
	t.Helper()
	res, err := parseLog(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParseJSONSplitEvents: test2json flushes a benchmark's name as its
// own Output event before the columns; the parser joins them into one
// reading per result line, one per round.
func TestParseJSONSplitEvents(t *testing.T) {
	log := `{"Action":"start","Package":"mvpar"}
{"Action":"output","Package":"mvpar","Output":"goos: linux\n"}
{"Action":"output","Package":"mvpar","Output":"BenchmarkSpMM/csr-2         \t"}
{"Action":"output","Package":"mvpar","Output":"     500\t      3937 ns/op\t       0 B/op\t       0 allocs/op\n"}
{"Action":"output","Package":"mvpar","Output":"BenchmarkWalkSample-2   \t"}
{"Action":"output","Package":"mvpar","Output":"      5\t   1200000 ns/op\t       143.0 graphs/op\t  9000 B/op\t     286 allocs/op\n"}
{"Action":"output","Package":"mvpar","Output":"BenchmarkSpMM/csr-2         \t     500\t      4100 ns/op\t       0 B/op\t       0 allocs/op\n"}
{"Action":"pass","Package":"mvpar"}
`
	res := mustParse(t, log)
	if len(res) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(res), res)
	}
	if s := res["BenchmarkSpMM/csr"]; s == nil || !equal(s.ns, []float64{3937, 4100}) || !equal(s.allocs, []float64{0, 0}) {
		t.Errorf("SpMM/csr = %+v, want ns [3937 4100], allocs [0 0]", s)
	}
	if s := res["BenchmarkWalkSample"]; s == nil || !equal(s.ns, []float64{1200000}) || !equal(s.allocs, []float64{286}) {
		t.Errorf("WalkSample = %+v, want ns [1200000], allocs [286]", s)
	}
}

// TestParsePlainText reads the output of a `go test -c` binary run
// directly, with and without -benchmem.
func TestParsePlainText(t *testing.T) {
	log := `goos: linux
goarch: amd64
pkg: mvpar
BenchmarkProfileCorpus-2   	       5	  41000000 ns/op	   2000000 instrs/op	 1200000 B/op	    1950 allocs/op
BenchmarkForwardF32/float64-2   	   30000	     44700 ns/op
BenchmarkProfileCorpus-2   	       5	  40000000 ns/op	   2000000 instrs/op	 1200000 B/op	    1951 allocs/op
PASS
ok  	mvpar	3.2s
`
	res := mustParse(t, log)
	if s := res["BenchmarkProfileCorpus"]; s == nil || !equal(s.ns, []float64{41e6, 40e6}) || !equal(s.allocs, []float64{1950, 1951}) {
		t.Errorf("ProfileCorpus = %+v", s)
	}
	if s := res["BenchmarkForwardF32/float64"]; s == nil || !equal(s.ns, []float64{44700}) || len(s.allocs) != 0 {
		t.Errorf("ForwardF32/float64 = %+v, want one ns reading and no allocs", s)
	}
}

func TestTrimProcSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkSpMM/csr-2":            "BenchmarkSpMM/csr",
		"BenchmarkSpMM/csr-16":           "BenchmarkSpMM/csr",
		"BenchmarkSpMM/csr":              "BenchmarkSpMM/csr",
		"BenchmarkDatasetEncode/jobs4-2": "BenchmarkDatasetEncode/jobs4",
		"BenchmarkForwardF32/float-x":    "BenchmarkForwardF32/float-x",
	} {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// readings builds a log holding one benchmark.
func readings(name string, allocs ...float64) map[string]*series {
	return map[string]*series{name: {ns: make([]float64, len(allocs)), allocs: allocs}}
}

// TestGateAllocsMinimum: allocs/op is compared as the minimum over
// rounds, without slack. ProfileCorpus drifts 1,948-1,952 between runs
// of one binary; the drift alone must not fail the gate, one more
// allocation must.
func TestGateAllocsMinimum(t *testing.T) {
	base := readings("BenchmarkProfileCorpus", 1950, 1951)
	if v := gate(base, readings("BenchmarkProfileCorpus", 1948, 1952)); len(v) != 0 {
		t.Errorf("HEAD 1948/1952 against base 1950/1951: violations %q, want none", v)
	}
	v := gate(base, readings("BenchmarkProfileCorpus", 1951, 1952))
	if len(v) != 1 || v[0] != "BenchmarkProfileCorpus: minimum allocs/op 1950 -> 1951" {
		t.Errorf("HEAD minimum one higher: violations %q, want one naming ProfileCorpus allocs", v)
	}
}

// TestGateMissingRow: a benchmark of the base log that HEAD no longer
// runs fails the gate; one that only HEAD runs does not, nor does a
// base row read without -benchmem.
func TestGateMissingRow(t *testing.T) {
	base := readings("BenchmarkGone", 3, 3)
	base["BenchmarkUntimed"] = &series{ns: []float64{100}}
	v := gate(base, readings("BenchmarkNew", 3, 3))
	if want := "BenchmarkGone: missing from HEAD's log"; len(v) != 1 || v[0] != want {
		t.Errorf("violations %q, want [%q]", v, want)
	}
}

// TestGateIgnoresTime: ns/op is printed, not gated; a row twice as
// slow with the same allocations passes.
func TestGateIgnoresTime(t *testing.T) {
	base := map[string]*series{"BenchmarkSpMM/csr": {ns: []float64{4000, 4100}, allocs: []float64{0, 0}}}
	head := map[string]*series{"BenchmarkSpMM/csr": {ns: []float64{8000, 8200}, allocs: []float64{0, 0}}}
	if v := gate(base, head); len(v) != 0 {
		t.Errorf("violations %q, want none", v)
	}
}
