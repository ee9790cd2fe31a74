package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
)

// spanServer starts a server over the e2e model and returns its URL.
func spanServer(t *testing.T, cfg Config) string {
	t.Helper()
	cls, err := e2eTrained(t).Classifier()
	if err != nil {
		t.Fatal(err)
	}
	s := New(cls, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	return ts.URL
}

// scrape GETs /metrics without negotiation headers, checks that the body
// conforms to the exposition format, and returns its sample values.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	if err := obs.CheckExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails conformance: %v", err)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			samples[name] = v
		}
	}
	return samples
}

// TestUntracedClassifyFeedsStageHistograms: one untraced
// classify feeds the stage histograms of /metrics, down to the
// dependence analysis, and times its one dataset build exactly once.
func TestUntracedClassifyFeedsStageHistograms(t *testing.T) {
	url := spanServer(t, Config{})
	const build = "mvpar_span_dataset_build_seconds_count"
	before := scrape(t, url)

	body, _ := json.Marshal(ClassifyRequest{Name: "span-untraced", Source: e2eSources["map"]})
	resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify = %d: %s", resp.StatusCode, raw)
	}
	if strings.Contains(string(raw), `"timings"`) {
		t.Fatalf("untraced request answered with timings: %s", raw)
	}

	after := scrape(t, url)
	if got := after[build] - before[build]; got != 1 {
		t.Errorf("%s rose by %v, want exactly 1", build, got)
	}
	for _, stage := range []string{"deps_analyze", "handler", "batcher", "replica", "classify", "gnn_forward"} {
		name := "mvpar_span_" + stage + "_seconds_count"
		if after[name] < 1 || after[name] <= before[name] {
			t.Errorf("%s = %v (before %v), want it to count this request", name, after[name], before[name])
		}
	}
}

// TestTimingsTreeHasOneDatasetBuild: a timings request's span tree holds
// exactly one dataset.build, under classify, with the profile, encode
// and standardize stages under it and the dependence analysis (and its
// interpreter run) under the profile stage.
func TestTimingsTreeHasOneDatasetBuild(t *testing.T) {
	url := spanServer(t, Config{})
	code, resp := postTimings(url, "span-traced", e2eSources["reduction"])
	if code != http.StatusOK {
		t.Fatalf("classify = %d", code)
	}
	spans := resp.Timings
	count := map[string]int{}
	byName := map[string]trace.SpanData{}
	for _, sp := range spans {
		count[sp.Name]++
		byName[sp.Name] = sp
	}
	if count["dataset.build"] != 1 {
		t.Fatalf("trace has %d dataset.build spans, want 1", count["dataset.build"])
	}
	// minic.parse is timed outside request traces: the benchmark reads a
	// traced minic.parse as a second parse of the request.
	if count["minic.parse"] != 0 {
		t.Errorf("trace has %d minic.parse spans, want 0", count["minic.parse"])
	}
	for _, chain := range [][]string{
		{"handler", "batcher", "replica", "classify", "dataset.build", "dataset.profile", "deps.analyze", "interp.run"},
		{"dataset.build", "dataset.encode"},
		{"dataset.build", "dataset.standardize"},
		{"classify", "gnn.forward"},
	} {
		leaf, ok := byName[chain[len(chain)-1]]
		if !ok {
			t.Errorf("trace lacks %s", chain[len(chain)-1])
			continue
		}
		if got := lineage(spans, leaf); !hasChain(got, chain...) {
			t.Errorf("%s lineage = %v, want the chain %v", leaf.Name, got, chain)
		}
	}
	if p := byName["deps.analyze"].Parent; p != byName["dataset.profile"].Span {
		t.Errorf("deps.analyze parent = %d, want dataset.profile %d", p, byName["dataset.profile"].Span)
	}
}
