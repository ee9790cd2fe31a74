package main

import (
	"crypto/sha256"
	"reflect"
	"testing"

	"mvpar/internal/minic"
)

func mustWorkloads(t *testing.T) map[string]*workload {
	t.Helper()
	ws, err := workloads()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*workload{}
	for _, w := range ws {
		byName[w.name] = w
	}
	return byName
}

func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range mustWorkloads(t) {
		differ := false
		for i := 0; i < 30; i++ {
			a, b := w.gen(1, i), w.gen(1, i)
			if a.name != b.name || a.source != b.source {
				t.Fatalf("%s: request %d differs between two generations with seed 1", w.name, i)
			}
			if w.gen(2, i).source != a.source {
				differ = true
			}
		}
		if !differ {
			t.Errorf("%s: seeds 1 and 2 give the same first 30 requests", w.name)
		}
	}
}

func TestUncachedStreamsNeverRepeat(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 5_000
	}
	for _, w := range mustWorkloads(t) {
		seen := make(map[[32]byte]int, n)
		for i := 0; i < n; i++ {
			sum := sha256.Sum256([]byte(w.gen(7, i).source))
			if j, dup := seen[sum]; dup {
				t.Fatalf("%s: request %d repeats the source of request %d", w.name, i, j)
			}
			seen[sum] = i
		}
	}
}

// TestPerturbationKeepsLoopsAndOracle profiles the first 200 requests of
// each stream: the loop count every answer is checked against must be the
// program's, and a renamed array or new constant must leave every oracle
// verdict equal to the base program's.
func TestPerturbationKeepsLoopsAndOracle(t *testing.T) {
	for _, w := range mustWorkloads(t) {
		for i := 0; i < 200; i++ {
			req := w.gen(3, i)
			ast, err := minic.Parse(req.name, req.source)
			if err != nil {
				t.Fatalf("%s: request %d: %v", w.name, i, err)
			}
			if got := len(ast.Loops()); got != req.loops {
				t.Fatalf("%s: request %d has %d loops, the stream says %d", w.name, i, got, req.loops)
			}
			got, err := oracleVerdicts(req.name, req.source)
			if err != nil {
				t.Fatalf("%s: request %d: %v", w.name, i, err)
			}
			if !reflect.DeepEqual(got, req.oracle) {
				t.Fatalf("%s: request %d: oracle verdicts %v, base program's %v", w.name, i, got, req.oracle)
			}
		}
	}
}

func TestVerifySetIgnoresSeedAndIsFresh(t *testing.T) {
	for _, w := range mustWorkloads(t) {
		set := w.verifySet(8)
		for i, r := range set {
			if r.source != w.gen(verifySeed, i).source {
				t.Errorf("%s: verify program %d is not stream program %d at seed %d", w.name, i, i, verifySeed)
			}
			for j := 0; j < 100; j++ {
				if r.name == w.gen(1, j).name {
					t.Errorf("%s: verify name %q is used by the stream", w.name, r.name)
				}
			}
		}
	}
}
