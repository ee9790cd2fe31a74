package dataset_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mvpar/internal/dataset"
	"mvpar/internal/faults"
)

// buildAt runs a lenient-capable build, then AddBaselineInputs, at the
// given worker count.
func buildAt(t *testing.T, jobs int, strict bool) (*dataset.Dataset, *dataset.BuildReport) {
	t.Helper()
	cfg := smallConfig()
	cfg.Parallelism = jobs
	cfg.Strict = strict
	d, report, err := dataset.Build(smallApps(), cfg)
	if err != nil {
		t.Fatalf("jobs=%d: %v", jobs, err)
	}
	if err := dataset.AddBaselineInputs(smallApps(), d.Records, cfg); err != nil {
		t.Fatalf("jobs=%d: %v", jobs, err)
	}
	return d, report
}

// TestBuildParallelBitIdentical is the dataset determinism guarantee:
// Build at any Parallelism must produce records (metadata, labels, node
// and struct feature matrices, tokens, tool votes) and a report identical
// to the Parallelism: 1 build.
func TestBuildParallelBitIdentical(t *testing.T) {
	d1, r1 := buildAt(t, 1, true)
	for _, jobs := range []int{2, 4} {
		dN, rN := buildAt(t, jobs, true)
		if len(dN.Records) != len(d1.Records) {
			t.Fatalf("jobs=%d: %d records vs %d serial", jobs, len(dN.Records), len(d1.Records))
		}
		for i := range d1.Records {
			a, b := d1.Records[i], dN.Records[i]
			if a.Meta != b.Meta || a.Label != b.Label || a.Pattern != b.Pattern {
				t.Fatalf("jobs=%d: record %d meta/label diverged: %+v vs %+v", jobs, i, a.Meta, b.Meta)
			}
			if !reflect.DeepEqual(a.Static, b.Static) || !reflect.DeepEqual(a.Tokens, b.Tokens) ||
				!reflect.DeepEqual(a.Tools, b.Tools) || !reflect.DeepEqual(a.Degraded, b.Degraded) {
				t.Fatalf("jobs=%d: record %d static/tokens/tools diverged", jobs, i)
			}
			for j, v := range a.Sample.Node.X.Data {
				if b.Sample.Node.X.Data[j] != v {
					t.Fatalf("jobs=%d: record %d node feature %d: %g vs %g", jobs, i, j, b.Sample.Node.X.Data[j], v)
				}
			}
			for j, v := range a.Sample.Struct.X.Data {
				if b.Sample.Struct.X.Data[j] != v {
					t.Fatalf("jobs=%d: record %d struct feature %d: %g vs %g (walk sampling not order-free?)",
						jobs, i, j, b.Sample.Struct.X.Data[j], v)
				}
			}
		}
		if rN.Programs != r1.Programs || rN.Healthy != r1.Healthy ||
			rN.DegradedRecords != r1.DegradedRecords || rN.Quarantine.Len() != r1.Quarantine.Len() {
			t.Fatalf("jobs=%d: report diverged: %+v vs %+v", jobs, rN, r1)
		}
	}
}

// TestBuildParallelQuarantine re-runs the poisoned-corpus scenario with a
// 4-worker pool: the same three programs must land in quarantine with the
// same stages, and the healthy records must match the serial lenient build.
func TestBuildParallelQuarantine(t *testing.T) {
	dataset.EncodeFaultHook = func(program string) {
		if program == "boomenc" {
			panic("injected encoder bug")
		}
	}
	defer func() { dataset.EncodeFaultHook = nil }()

	cfg := smallConfig()
	cfg.Strict = false
	cfg.MaxSteps = 200_000
	cfg.Parallelism = 4
	d, report, err := dataset.Build(poisonedCorpus(), cfg)
	if err != nil {
		t.Fatalf("parallel lenient build failed: %v", err)
	}
	if report.Programs != 5 || report.Healthy != 2 {
		t.Fatalf("report programs/healthy = %d/%d, want 5/2", report.Programs, report.Healthy)
	}
	for prog, stage := range map[string]string{
		"badparse": faults.StageParse,
		"runaway":  faults.StageProfile,
		"boomenc":  faults.StageEncode,
	} {
		if got := report.Quarantine.StageOf(prog); got != stage {
			t.Errorf("%s quarantined in stage %q, want %q", prog, got, stage)
		}
	}
	if len(d.Records) != 18 {
		t.Fatalf("records = %d, want 18", len(d.Records))
	}
}

// TestBuildParallelStrictNamesFirstFailure checks strict fail-fast under
// the pool still reports the failure the serial build would hit first
// (badparse is the lowest-index poisoned program).
func TestBuildParallelStrictNamesFirstFailure(t *testing.T) {
	cfg := smallConfig()
	cfg.Strict = true
	cfg.Parallelism = 4
	_, _, err := dataset.Build(poisonedCorpus(), cfg)
	if err == nil {
		t.Fatal("strict parallel build of poisoned corpus succeeded")
	}
	var se *faults.StageError
	if !errors.As(err, &se) || se.Program != "badparse" {
		t.Fatalf("strict parallel error = %v, want badparse stage error", err)
	}
}

// TestBuildParallelCancellation checks a cancelled context aborts the
// pooled build with an error and an empty quarantine.
func TestBuildParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := smallConfig()
	cfg.Strict = false
	cfg.Parallelism = 4
	cfg.Ctx = ctx
	_, report, err := dataset.Build(smallApps(), cfg)
	if err == nil {
		t.Fatal("cancelled parallel build succeeded")
	}
	if report.Quarantine.Len() != 0 {
		t.Fatalf("cancellation was quarantined: %s", report.Quarantine)
	}
}
