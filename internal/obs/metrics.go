package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float metric (last value wins).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds delta to the gauge — the in-flight/queue-depth
// idiom (Add(1) on entry, Add(-1) on exit) of the HTTP serving layer.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets are the upper bounds of the histogram's exponential
// buckets, sized for durations in seconds and counts alike: 1e-6 .. ~65s
// doubling, plus a +Inf overflow bucket.
var histBuckets = func() []float64 {
	var b []float64
	for v := 1e-6; v < 100; v *= 2 {
		b = append(b, v)
	}
	return b
}()

// Histogram aggregates observed float values: count, sum and
// exponential buckets.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	buckets []int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.buckets == nil {
		h.buckets = make([]int64, len(histBuckets)+1)
	}
	h.count++
	h.sum += v
	i := sort.SearchFloat64s(histBuckets, v)
	h.buckets[i]++
}

// Snapshot returns the histogram's observation count and sum.
func (h *Histogram) Snapshot() (count int64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count, h.sum
}

// Bucket is one cumulative histogram bucket: the count of observations
// ≤ UpperBound. The last bucket's bound is +Inf, so its count equals the
// histogram's total count.
type Bucket struct {
	UpperBound float64
	Count      int64
}

// Buckets returns the cumulative bucket snapshot (Prometheus `le`
// semantics), always ending in the +Inf bucket. The bounds are the
// fixed exponential ladder every Histogram shares (1e-6 doubling to
// ~67, seconds-friendly), so histogram_quantile() derives quantiles from
// any dump that includes these lines.
func (h *Histogram) Buckets() []Bucket {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Bucket, len(histBuckets)+1)
	var cum int64
	for i := range out {
		if h.buckets != nil {
			cum += h.buckets[i]
		}
		bound := math.Inf(1)
		if i < len(histBuckets) {
			bound = histBuckets[i]
		}
		out[i] = Bucket{UpperBound: bound, Count: cum}
	}
	return out
}

// LabelPair is one rendered label of an info metric.
type LabelPair struct {
	Key   string
	Value string
}

// Registry is a set of named metrics. The zero value is not usable; use
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	stages   map[string]*Histogram // span histograms by raw stage name
	infos    map[string][]LabelPair
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		stages:   map[string]*Histogram{},
		infos:    map[string][]LabelPair{},
	}
}

// SetInfo registers (or replaces) an info metric: the Prometheus
// `*_info` idiom of a constant-1 gauge whose labels carry identity —
// build version, Go version, model generation. Labels are stored in
// sorted key order so the exposition is stable across scrapes.
func (r *Registry) SetInfo(name string, labels map[string]string) {
	pairs := make([]LabelPair, 0, len(labels))
	for k, v := range labels {
		pairs = append(pairs, LabelPair{Key: k, Value: v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
	r.mu.Lock()
	if r.infos == nil {
		r.infos = map[string][]LabelPair{}
	}
	r.infos[name] = pairs
	r.mu.Unlock()
}

// Info returns the labels of a registered info metric (nil if absent).
func (r *Registry) Info(name string) []LabelPair {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]LabelPair(nil), r.infos[name]...)
}

var defaultRegistry = NewRegistry()

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histogramLocked(name)
}

func (r *Registry) histogramLocked(name string) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// ObserveStage records one span of stage into the histogram
// mvpar_span_<stage>_seconds. The stage index is keyed by the raw stage
// name, so after a stage's first span the lookup allocates nothing.
func (r *Registry) ObserveStage(stage string, d time.Duration) {
	r.mu.Lock()
	h := r.stages[stage]
	if h == nil {
		h = r.histogramLocked("mvpar_span_" + mangle(stage) + "_seconds")
		r.stages[stage] = h
	}
	r.mu.Unlock()
	h.Observe(d.Seconds())
}

// mangle turns a stage name into a metric-name segment.
func mangle(name string) string {
	return strings.Map(func(c rune) rune {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			return c
		}
		return '_'
	}, name)
}

// Reset drops every metric, span histograms included; tests use it for
// isolation.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = map[string]*Counter{}
	r.gauges = map[string]*Gauge{}
	r.hists = map[string]*Histogram{}
	r.stages = map[string]*Histogram{}
	r.infos = map[string][]LabelPair{}
}

// Package-level helpers on the default registry.

// GetCounter returns the named counter of the default registry.
func GetCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// GetGauge returns the named gauge of the default registry.
func GetGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// GetHistogram returns the named histogram of the default registry.
func GetHistogram(name string) *Histogram { return defaultRegistry.Histogram(name) }

// ObserveStage records one span of stage on the default registry.
func ObserveStage(stage string, d time.Duration) { defaultRegistry.ObserveStage(stage, d) }

// SetInfo registers an info metric on the default registry.
func SetInfo(name string, labels map[string]string) { defaultRegistry.SetInfo(name, labels) }

// Reset clears the default registry (tests only).
func Reset() { defaultRegistry.Reset() }
