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
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Quantiles come from the _bucket series via histogram_quantile();
	// no histogram carries estimate gauges beside them.
	for _, suffix := range []string{"_p50", "_p95", "_p99"} {
		if strings.Contains(out, suffix+" ") {
			t.Errorf("exposition carries a %s quantile gauge:\n%s", suffix, out)
		}
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
