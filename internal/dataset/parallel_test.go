package dataset_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mvpar/internal/dataset"
	"mvpar/internal/faults"
)

// buildAt runs a build, then AddBaselineInputs, at the given worker
// count.
func buildAt(t *testing.T, jobs int) (*dataset.Dataset, *dataset.BuildReport) {
	t.Helper()
	cfg := smallConfig()
	cfg.Parallelism = jobs
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
	d1, r1 := buildAt(t, 1)
	for _, jobs := range []int{2, 4} {
		dN, rN := buildAt(t, jobs)
		if len(dN.Records) != len(d1.Records) {
			t.Fatalf("jobs=%d: %d records vs %d serial", jobs, len(dN.Records), len(d1.Records))
		}
		for i := range d1.Records {
			a, b := d1.Records[i], dN.Records[i]
			if a.Meta != b.Meta || a.Label != b.Label || a.Pattern != b.Pattern {
				t.Fatalf("jobs=%d: record %d meta/label diverged: %+v vs %+v", jobs, i, a.Meta, b.Meta)
			}
			if !reflect.DeepEqual(a.Static, b.Static) || !reflect.DeepEqual(a.Tokens, b.Tokens) ||
				!reflect.DeepEqual(a.Tools, b.Tools) {
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
		if *rN != *r1 {
			t.Fatalf("jobs=%d: report diverged: %+v vs %+v", jobs, rN, r1)
		}
	}
}

// TestBuildParallelQuarantine re-runs the poisoned-program builds with a
// 4-worker pool: each must fail with the same program, stage and error
// text as the serial build.
func TestBuildParallelQuarantine(t *testing.T) {
	for _, poisoned := range poisonedCorpus()[len(smallApps()):] {
		serial := buildPoisoned(t, poisoned, 1)
		if err := buildPoisoned(t, poisoned, 4); err.Error() != serial.Error() {
			t.Fatalf("%s: jobs=4 error %q differs from the serial %q", poisoned.Name, err, serial)
		}
	}
}

// TestBuildParallelStrictNamesFirstFailure checks fail-fast under the
// pool still reports the failure the serial build would hit first
// (badparse is the lowest-index poisoned program).
func TestBuildParallelStrictNamesFirstFailure(t *testing.T) {
	cfg := smallConfig()
	cfg.Parallelism = 4
	_, _, err := dataset.Build(poisonedCorpus(), cfg)
	if err == nil {
		t.Fatal("parallel build of poisoned corpus succeeded")
	}
	var se *faults.StageError
	if !errors.As(err, &se) || se.Program != "badparse" {
		t.Fatalf("parallel error = %v, want badparse stage error", err)
	}
}

// TestBuildParallelCancellation checks a cancelled context aborts the
// pooled build with the cancellation.
func TestBuildParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := smallConfig()
	cfg.Parallelism = 4
	cfg.Ctx = ctx
	_, _, err := dataset.Build(smallApps(), cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled parallel build = %v, want context.Canceled", err)
	}
}
