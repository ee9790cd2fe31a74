package obs_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
)

// TestSpanAggregation checks that every span of one stage lands in the
// stage's mangled histogram mvpar_span_<stage>_seconds, and that Reset
// clears the stage index along with the histograms.
func TestSpanAggregation(t *testing.T) {
	obs.Reset()
	defer obs.Reset()
	for i := 0; i < 3; i++ {
		_, sp := trace.StartSpan(context.Background(), "dataset.build")
		time.Sleep(time.Millisecond)
		sp.End()
	}
	_, sp := trace.StartSpan(context.Background(), "gnn.train")
	sp.End()

	count, sum := obs.GetHistogram("mvpar_span_dataset_build_seconds").Snapshot()
	if count != 3 || sum < 0.003 {
		t.Errorf("dataset.build histogram count=%d sum=%v, want 3 and >= 3ms", count, sum)
	}
	if count, _ := obs.GetHistogram("mvpar_span_gnn_train_seconds").Snapshot(); count != 1 {
		t.Errorf("gnn.train histogram count=%d, want 1", count)
	}

	obs.Reset()
	_, sp = trace.StartSpan(context.Background(), "dataset.build")
	sp.End()
	if count, _ := obs.GetHistogram("mvpar_span_dataset_build_seconds").Snapshot(); count != 1 {
		t.Errorf("after Reset, dataset.build histogram count=%d, want 1", count)
	}
}

// TestConcurrentSpans ends spans of one stage from many goroutines; the
// stage histogram must count every one (run under -race by make test).
func TestConcurrentSpans(t *testing.T) {
	obs.Reset()
	defer obs.Reset()
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, sp := trace.StartSpan(context.Background(), "stage.par")
				sp.End()
			}
		}()
	}
	wg.Wait()
	if count, _ := obs.GetHistogram("mvpar_span_stage_par_seconds").Snapshot(); count != workers*per {
		t.Errorf("stage.par histogram count = %d, want %d", count, workers*per)
	}
}

// TestZeroSpanEndIsSafe checks that the zero Span is inert: ending it
// neither panics nor records an observation.
func TestZeroSpanEndIsSafe(t *testing.T) {
	obs.Reset()
	defer obs.Reset()
	var sp trace.Span
	sp.SetAttr("k", "v")
	sp.End()
	if count, _ := obs.GetHistogram("mvpar_span__seconds").Snapshot(); count != 0 {
		t.Errorf("zero Span recorded %d observations", count)
	}
}
