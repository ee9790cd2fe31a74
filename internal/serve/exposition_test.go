package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"mvpar/internal/obs"
)

// TestServeMetricsExpositionConformance pins the serving layer's full
// metric surface — including the resilience families this layer owns
// (reload/rollback counters, degraded-response counters,
// mvpar_build_info) — to the strict Prometheus text-format checker that
// CI also runs against /metrics. The server runs the
// default config, so the test also pins that it exports the single
// admission queue's depth gauge and no family of the removed sharding,
// autoscaling, breaker/retry, request-batching, chaos-injection,
// response-cache, precision-tier and multi-model layers.
func TestServeMetricsExpositionConformance(t *testing.T) {
	s, ts := newTestServer(t, &genStub{gen: 1}, Config{Version: "test"})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Touch every new counter family so the exposition carries them even
	// when this test runs alone.
	for _, name := range []string{
		"mvpar_model_reloads_total",
		"mvpar_model_reload_failures_total",
		"mvpar_model_generations_drained_total",
		"mvpar_http_degraded_responses_total",
	} {
		obs.GetCounter(name).Add(0)
	}
	if _, _, err := postClassifyRaw(ts.URL); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := obs.CheckExposition(resp.Body); err != nil {
		t.Fatalf("/metrics exposition fails conformance: %v", err)
	}
	if err := obs.CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("registry exposition fails conformance: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE mvpar_build_info gauge",
		`mvpar_build_info{`,
		`generation="`,
		`go_version="go`,
		`version="test"`,
		"# TYPE mvpar_model_generation gauge",
		"# TYPE mvpar_model_reloads_total counter",
		"# TYPE mvpar_model_reload_failures_total counter",
		"# TYPE mvpar_http_degraded_responses_total counter",
		`model="fp-1"`,
		"# TYPE mvpar_http_requests_classify_total counter",
		"# TYPE mvpar_http_responses_2xx_total counter",
		"# TYPE mvpar_http_queue_depth gauge",
		"# TYPE mvpar_span_handler_seconds histogram",
		"# TYPE mvpar_span_batcher_seconds histogram",
		"# TYPE mvpar_span_replica_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, gone := range []string{
		"mvpar_shard_",
		"mvpar_autoscale_",
		"mvpar_replica_breaker_",
		"mvpar_replica_retries_total",
		"mvpar_http_batches_total",
		"mvpar_http_batch_size",
		"mvpar_chaos_",
		"mvpar_http_cache_",
		"mvpar_inference_precision",
		"mvpar_model_info_",
		"mvpar_classify_requests_",
	} {
		if strings.Contains(out, gone) {
			t.Errorf("exposition carries the removed %q family", gone)
		}
	}
}

// postClassifyRaw sends one classify request without test assertions.
func postClassifyRaw(url string) (int, string, error) {
	code, resp := tryClassify(url, "expo", stubSource)
	if code == 0 {
		return 0, "", http.ErrServerClosed
	}
	return code, resp.Name, nil
}
