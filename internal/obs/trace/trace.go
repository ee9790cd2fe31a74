// Package trace is the one way to time a pipeline stage. StartSpan
// starts a span; its End records the stage's wall time into the
// histogram mvpar_span_<stage>_seconds of the default obs registry, so
// every span feeds /metrics whether or not anyone traces. When a
// request-scoped Trace rides the context, the span also joins that
// request's tree of hierarchical spans (parent/child links, key/value
// attributes, per-span durations, a shared trace ID), propagated on the
// context the request already carries — handler → batcher → replica →
// classify → dataset build → GNN forward. The trace answers "where did
// this one request spend its time"; the histograms answer it for the
// whole process.
//
// An untraced span costs one context lookup, two clock reads and one
// histogram observation, and allocates nothing: Span is a small value
// whose tree node is nil, so its attribute calls are no-ops (guarded by
// TestUntracedContextIsFree, BenchmarkClassifyTracingDisabled and the
// benchgate).
//
// The serving layer retains slow requests' traces in a bounded Ring and
// serves their span trees as JSON at /debug/traces; see
// docs/observability.md.
package trace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mvpar/internal/obs"
)

// maxSpans bounds one trace's span count so a pathological request (a
// program with thousands of loops) cannot grow a trace without limit;
// spans past the cap are counted in Trace.Dropped instead of retained.
const maxSpans = 512

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed stage, started by StartSpan. End records the stage's
// wall time into the histogram mvpar_span_<stage>_seconds of the default
// obs registry; when a trace rode the context, the span is also a node
// of that trace's tree. Span is a small value, so an untraced span
// allocates nothing. The zero Span is inert: its methods do nothing.
type Span struct {
	n     *node // nil when untraced
	name  string
	start time.Time
}

// node is one span of a trace's tree. Nodes link via parent IDs; the
// zero ID is "no parent" (the root).
type node struct {
	tr     *Trace
	id     uint64
	parent uint64
	name   string
	start  time.Time

	mu    sync.Mutex
	end   time.Time
	attrs []Attr
}

// Trace is one request's span tree. Create with New, propagate via the
// returned context, finish with Finish. Safe for concurrent use: batch
// execution ends spans from worker goroutines while the handler owns the
// root.
type Trace struct {
	id   uint64
	name string

	mu      sync.Mutex
	nextID  uint64
	nodes   []*node
	root    *node
	dropped int
}

// traceIDs hands out process-unique trace IDs. Seeded from the clock so
// IDs differ across restarts (they label logs and exports, nothing
// security-relevant).
var traceIDs atomic.Uint64

func init() {
	traceIDs.Store(uint64(time.Now().UnixNano()))
}

// ctxKey carries the active span's node (and through it the trace) on a
// context.
type ctxKey struct{}

// New starts a trace named name — its root span — and returns a context
// carrying it. Callers must End the root (or call Finish) when the
// request completes; the root's End feeds the name's stage histogram
// like any other span.
func New(ctx context.Context, name string) (context.Context, *Trace) {
	tr := &Trace{
		id:     traceIDs.Add(0x9E3779B97F4A7C15), // Weyl increment: unique, well-mixed low bits
		name:   name,
		nextID: 1,
	}
	root := &node{tr: tr, id: 1, name: name, start: time.Now()}
	tr.root = root
	tr.nodes = append(tr.nodes, root)
	return context.WithValue(ctx, ctxKey{}, root), tr
}

// StartSpan begins timing the stage name. When ctx carries a trace, the
// span also becomes a child of ctx's active span and the returned
// context has it active. On an untraced (or nil) context it returns ctx
// itself and a span that costs one context lookup, two clock reads and,
// at End, one histogram observation: no allocations.
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
	if ctx != nil {
		if parent, _ := ctx.Value(ctxKey{}).(*node); parent != nil {
			if n := parent.tr.newNode(parent.id, name); n != nil {
				return context.WithValue(ctx, ctxKey{}, n), Span{n: n, name: name, start: n.start}
			}
		}
	}
	return ctx, Span{name: name, start: time.Now()}
}

// newNode allocates and registers one node, or returns nil past maxSpans.
func (t *Trace) newNode(parent uint64, name string) *node {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.nodes) >= maxSpans {
		t.dropped++
		return nil
	}
	t.nextID++
	n := &node{tr: t, id: t.nextID, parent: parent, name: name, start: time.Now()}
	t.nodes = append(t.nodes, n)
	return n
}

// End records the span's duration into its stage histogram and, when
// traced, marks its node finished. A traced span records only its first
// End; an untraced span must be ended once.
func (s Span) End() {
	if s.start.IsZero() {
		return
	}
	end := time.Now()
	if s.n != nil && !s.n.finish(end) {
		return
	}
	obs.ObserveStage(s.name, end.Sub(s.start))
}

// finish sets the node's end time unless it already has one, and
// reports whether it did.
func (n *node) finish(end time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.end.IsZero() {
		return false
	}
	n.end = end
	return true
}

// SetAttr annotates the span's trace node with a key/value pair; a no-op
// when untraced.
func (s Span) SetAttr(key, value string) {
	if s.n == nil {
		return
	}
	s.n.mu.Lock()
	s.n.attrs = append(s.n.attrs, Attr{Key: key, Value: value})
	s.n.mu.Unlock()
}

// SetAttrInt annotates the span's trace node with an integer value; a
// no-op when untraced.
func (s Span) SetAttrInt(key string, value int64) {
	if s.n == nil {
		return
	}
	s.SetAttr(key, fmt.Sprintf("%d", value))
}

// ID returns the trace's hex identifier (the wire/logs form).
func (t *Trace) ID() string { return fmt.Sprintf("%016x", t.id) }

// Name returns the root span's name.
func (t *Trace) Name() string { return t.name }

// Root returns the root span.
func (t *Trace) Root() Span { return Span{n: t.root, name: t.name, start: t.root.start} }

// Finish ends the root span (idempotent) and returns the trace.
func (t *Trace) Finish() *Trace {
	t.Root().End()
	return t
}

// Duration returns the root span's wall time: end−start once finished,
// time-so-far while still running.
func (t *Trace) Duration() time.Duration {
	t.root.mu.Lock()
	end := t.root.end
	t.root.mu.Unlock()
	if end.IsZero() {
		return time.Since(t.root.start)
	}
	return end.Sub(t.root.start)
}

// SpanData is one span's immutable snapshot, the unit of both JSON
// answers that carry spans: the /v1/classify timings breakdown and
// /debug/traces.
type SpanData struct {
	TraceID string `json:"trace_id"`
	Span    uint64 `json:"span"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	// StartUS is the span's start offset from the trace root, microseconds.
	StartUS float64 `json:"start_us"`
	// DurUS is the span's duration in microseconds; for a span still
	// running when the snapshot was taken, the duration so far with
	// Unfinished set.
	DurUS      float64 `json:"dur_us"`
	Unfinished bool    `json:"unfinished,omitempty"`
	Attrs      []Attr  `json:"attrs,omitempty"`
}

// Dropped reports how many spans were discarded past the per-trace cap.
func (t *Trace) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans snapshots the span tree in start order. Each span's offset is
// relative to the root's start.
func (t *Trace) Spans() []SpanData {
	t.mu.Lock()
	spans := make([]*node, len(t.nodes))
	copy(spans, t.nodes)
	t.mu.Unlock()
	id := t.ID()
	base := t.root.start
	out := make([]SpanData, 0, len(spans))
	for _, sp := range spans {
		sp.mu.Lock()
		end := sp.end
		attrs := append([]Attr(nil), sp.attrs...)
		sp.mu.Unlock()
		d := SpanData{
			TraceID: id,
			Span:    sp.id,
			Parent:  sp.parent,
			Name:    sp.name,
			StartUS: float64(sp.start.Sub(base)) / float64(time.Microsecond),
			Attrs:   attrs,
		}
		if end.IsZero() {
			d.DurUS = float64(time.Since(sp.start)) / float64(time.Microsecond)
			d.Unfinished = true
		} else {
			d.DurUS = float64(end.Sub(sp.start)) / float64(time.Microsecond)
		}
		out = append(out, d)
	}
	return out
}
