package trace

import (
	"context"
	"sync"
	"testing"

	"mvpar/internal/obs"
)

// TestSpanTreeLineage checks parent/child wiring, attributes and the
// shared trace ID across a three-level tree.
func TestSpanTreeLineage(t *testing.T) {
	ctx, tr := New(context.Background(), "handler")
	tr.Root().SetAttr("program", "p1")
	bctx, bspan := StartSpan(ctx, "batcher")
	rctx, rspan := StartSpan(bctx, "replica")
	_, fspan := StartSpan(rctx, "gnn.forward")
	fspan.SetAttrInt("loop", 3)
	fspan.End()
	rspan.End()
	bspan.End()
	tr.Finish()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byName := map[string]SpanData{}
	for _, sp := range spans {
		if sp.TraceID != tr.ID() {
			t.Errorf("span %s trace ID %s, want %s", sp.Name, sp.TraceID, tr.ID())
		}
		if sp.Unfinished {
			t.Errorf("span %s unfinished after End", sp.Name)
		}
		byName[sp.Name] = sp
	}
	if byName["handler"].Parent != 0 {
		t.Errorf("root has parent %d", byName["handler"].Parent)
	}
	if byName["batcher"].Parent != byName["handler"].Span {
		t.Errorf("batcher parent = %d, want %d", byName["batcher"].Parent, byName["handler"].Span)
	}
	if byName["replica"].Parent != byName["batcher"].Span {
		t.Errorf("replica parent = %d, want %d", byName["replica"].Parent, byName["batcher"].Span)
	}
	if byName["gnn.forward"].Parent != byName["replica"].Span {
		t.Errorf("forward parent = %d, want %d", byName["gnn.forward"].Parent, byName["replica"].Span)
	}
	if got := byName["gnn.forward"].Attrs; len(got) != 1 || got[0].Key != "loop" || got[0].Value != "3" {
		t.Errorf("forward attrs = %v", got)
	}
}

// TestUntracedContextIsFree pins the zero-allocation contract of the
// untraced path: StartSpan on a context with no trace, plus every span
// method, must not allocate, and End must still feed the stage
// histogram.
func TestUntracedContextIsFree(t *testing.T) {
	ctx := context.Background()
	hist := obs.GetHistogram("mvpar_span_stage_seconds")
	before, _ := hist.Snapshot()
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() {
		c2, sp := StartSpan(ctx, "stage")
		sp.SetAttr("k", "v")
		sp.SetAttrInt("n", 7)
		sp.End()
		if c2 != ctx {
			t.Fatal("untraced StartSpan must return the input context")
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced path allocates %.1f allocs/op, want 0", allocs)
	}
	// AllocsPerRun calls the function once more as a warm-up.
	if after, _ := hist.Snapshot(); after-before != runs+1 {
		t.Fatalf("stage histogram gained %d observations, want %d", after-before, runs+1)
	}
}

// TestConcurrentSpansNoCrossContamination runs many goroutines each
// opening spans on its own trace; every trace must see exactly its own
// spans (run under -race by make test).
func TestConcurrentSpansNoCrossContamination(t *testing.T) {
	const n = 16
	var wg sync.WaitGroup
	traces := make([]*Trace, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, tr := New(context.Background(), "req")
			traces[i] = tr
			var inner sync.WaitGroup
			for j := 0; j < 8; j++ {
				inner.Add(1)
				go func(j int) {
					defer inner.Done()
					_, sp := StartSpan(ctx, "work")
					sp.SetAttrInt("j", int64(j))
					sp.End()
				}(j)
			}
			inner.Wait()
			tr.Finish()
		}(i)
	}
	wg.Wait()
	ids := map[string]bool{}
	for _, tr := range traces {
		if ids[tr.ID()] {
			t.Fatalf("duplicate trace ID %s", tr.ID())
		}
		ids[tr.ID()] = true
		if got := len(tr.Spans()); got != 9 {
			t.Fatalf("trace %s has %d spans, want 9", tr.ID(), got)
		}
	}
}

// TestSpanCap bounds runaway traces.
func TestSpanCap(t *testing.T) {
	ctx, tr := New(context.Background(), "big")
	for i := 0; i < maxSpans+100; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	if got := len(tr.Spans()); got != maxSpans {
		t.Fatalf("retained %d spans, want cap %d", got, maxSpans)
	}
	if tr.Dropped() != 101 {
		t.Fatalf("dropped = %d, want 101", tr.Dropped())
	}
}

// TestRing checks bounded retention and newest-first snapshots.
func TestRing(t *testing.T) {
	r := NewRing(3)
	var last *Trace
	for i := 0; i < 5; i++ {
		_, tr := New(context.Background(), "t")
		tr.Finish()
		r.Add(tr)
		last = tr
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("snapshot has %d traces, want 3", len(got))
	}
	if got[0] != last {
		t.Fatal("snapshot not newest-first")
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
}

// TestTracedSpanRecordsOnce checks that a traced span feeds its stage
// histogram on its first End only, so a root ended by its handler and
// again by Finish counts once.
func TestTracedSpanRecordsOnce(t *testing.T) {
	names := []string{"mvpar_span_once_root_seconds", "mvpar_span_once_child_seconds"}
	before := make([]int64, len(names))
	for i, name := range names {
		before[i], _ = obs.GetHistogram(name).Snapshot()
	}
	ctx, tr := New(context.Background(), "once.root")
	_, sp := StartSpan(ctx, "once.child")
	sp.End()
	sp.End()
	tr.Root().End()
	tr.Finish()
	for i, name := range names {
		if count, _ := obs.GetHistogram(name).Snapshot(); count-before[i] != 1 {
			t.Errorf("%s count rose by %d, want 1", name, count-before[i])
		}
	}
}
