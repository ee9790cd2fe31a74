package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHistogramBuckets pins the cumulative snapshot: monotone counts,
// +Inf terminal bucket equal to the total count.
func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, v := range []float64{0.001, 0.002, 0.002, 1.5, 200} {
		h.Observe(v)
	}
	bs := h.Buckets()
	if len(bs) != len(histBuckets)+1 {
		t.Fatalf("got %d buckets, want %d", len(bs), len(histBuckets)+1)
	}
	last := bs[len(bs)-1]
	if !math.IsInf(last.UpperBound, 1) {
		t.Fatalf("last bound = %v, want +Inf", last.UpperBound)
	}
	if last.Count != 5 {
		t.Fatalf("+Inf count = %d, want 5", last.Count)
	}
	prev := int64(0)
	for _, b := range bs {
		if b.Count < prev {
			t.Fatalf("cumulative count decreased: %v", bs)
		}
		prev = b.Count
	}
	// 200 exceeds the last finite bound, so the finite tail must hold 4.
	if fin := bs[len(bs)-2]; fin.Count != 4 {
		t.Fatalf("finite tail count = %d, want 4", fin.Count)
	}
}

// TestHistogramQuantile checks the estimator against a known uniform
// spread: estimates must stay inside the observed range, be monotone in
// q, and land near the true quantiles (bucket resolution permitting).
func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	// 1..1000 ms, uniform.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 0.001)
	}
	p50 := h.Quantile(0.50)
	p95 := h.Quantile(0.95)
	p99 := h.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if p50 < 0.25 || p50 > 1.0 {
		t.Fatalf("p50 = %v, want within a bucket of 0.5", p50)
	}
	if p99 < 0.5 || p99 > 1.0 {
		t.Fatalf("p99 = %v, want within (0.5, 1.0]", p99)
	}
	if min := h.Quantile(0); min != 0.001 {
		t.Fatalf("q0 = %v, want min 0.001", min)
	}
	if max := h.Quantile(1); max != 1.0 {
		t.Fatalf("q1 = %v, want max 1.0", max)
	}
}

// TestWritePrometheusConformance runs the strict checker over a real
// registry's exposition — the same validation the CI matrix applies to
// the live /metrics output.
func TestWritePrometheusConformance(t *testing.T) {
	r := NewRegistry()
	r.Counter("mvpar_http_requests_total").Add(7)
	r.Gauge("mvpar_http_queue_depth").Set(3)
	h := r.Histogram("mvpar_http_request_seconds")
	for _, v := range []float64{0.001, 0.004, 0.2} {
		h.Observe(v)
	}
	r.Histogram("mvpar_http_batch_size").Observe(4)
	r.Histogram("mvpar_empty_seconds")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition failed conformance: %v\noutput:\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE mvpar_http_requests_total counter",
		"mvpar_http_requests_total 7",
		"# TYPE mvpar_http_request_seconds histogram",
		`mvpar_http_request_seconds_bucket{le="+Inf"} 3`,
		"mvpar_http_request_seconds_sum 0.205",
		"mvpar_http_request_seconds_count 3",
		"# TYPE mvpar_http_request_seconds_p50 gauge",
		"mvpar_http_request_seconds_p99 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Quantile gauges appear only for *_seconds histograms with data.
	if strings.Contains(out, "mvpar_http_batch_size_p50") {
		t.Error("non-latency histogram grew quantile gauges")
	}
	if strings.Contains(out, "mvpar_empty_seconds_p50") {
		t.Error("empty histogram grew quantile gauges")
	}
}

// TestCheckExpositionRejects exercises the checker's strictness: each
// malformed document must fail.
func TestCheckExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "mvpar_x_total 3\n",
		"bad TYPE kind":       "# TYPE mvpar_x_total countr\nmvpar_x_total 3\n",
		"TYPE after sample":   "# TYPE mvpar_x counter\nmvpar_x 1\n# TYPE mvpar_x counter\n",
		"malformed line":      "# TYPE mvpar_x counter\nmvpar_x one\n",
		"bucket without le":   "# TYPE mvpar_h histogram\nmvpar_h_bucket{lo=\"1\"} 2\nmvpar_h_sum 1\nmvpar_h_count 2\n",
		"no +Inf bucket":      "# TYPE mvpar_h histogram\nmvpar_h_bucket{le=\"1\"} 2\nmvpar_h_sum 1\nmvpar_h_count 2\n",
		"missing _sum":        "# TYPE mvpar_h histogram\nmvpar_h_bucket{le=\"+Inf\"} 2\nmvpar_h_count 2\n",
		"inf != count":        "# TYPE mvpar_h histogram\nmvpar_h_bucket{le=\"+Inf\"} 2\nmvpar_h_sum 1\nmvpar_h_count 3\n",
		"decreasing buckets":  "# TYPE mvpar_h histogram\nmvpar_h_bucket{le=\"1\"} 2\nmvpar_h_bucket{le=\"2\"} 1\nmvpar_h_bucket{le=\"+Inf\"} 2\nmvpar_h_sum 1\nmvpar_h_count 2\n",
		"le out of order":     "# TYPE mvpar_h histogram\nmvpar_h_bucket{le=\"2\"} 1\nmvpar_h_bucket{le=\"1\"} 2\nmvpar_h_bucket{le=\"+Inf\"} 2\nmvpar_h_sum 1\nmvpar_h_count 2\n",
	}
	for name, doc := range cases {
		if err := CheckExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: checker accepted malformed document:\n%s", name, doc)
		}
	}
	ok := "# HELP mvpar_x a counter\n# TYPE mvpar_x counter\nmvpar_x 1\n\n# TYPE mvpar_g gauge\nmvpar_g NaN\n"
	if err := CheckExposition(strings.NewReader(ok)); err != nil {
		t.Errorf("checker rejected conforming document: %v", err)
	}
}

// TestMetricsHandlerAlwaysPrometheus checks that /metrics answers the
// exposition format to a plain GET, to a scraper's Accept header and to
// an explicit ?format=prometheus alike.
func TestMetricsHandlerAlwaysPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("mvpar_x_total").Add(1)
	h := r.Handler()

	scrape := httptest.NewRequest("GET", "/metrics", nil)
	scrape.Header.Set("Accept", "text/plain;version=0.0.4;q=0.9,*/*;q=0.1")
	for name, req := range map[string]*http.Request{
		"plain GET":          httptest.NewRequest("GET", "/metrics", nil),
		"Prometheus Accept":  scrape,
		"?format=prometheus": httptest.NewRequest("GET", "/metrics?format=prometheus", nil),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if ct := rec.Header().Get("Content-Type"); ct != PrometheusContentType {
			t.Errorf("%s: Content-Type = %q", name, ct)
		}
		body := rec.Body.String()
		if !strings.Contains(body, "# TYPE mvpar_x_total counter\nmvpar_x_total 1\n") {
			t.Errorf("%s: not the exposition format:\n%s", name, body)
		}
		if err := CheckExposition(strings.NewReader(body)); err != nil {
			t.Errorf("%s: exposition fails conformance: %v", name, err)
		}
	}
}
