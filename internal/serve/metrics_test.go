package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"mvpar/internal/obs"
)

// TestInstrumentAllocs pins the per-request cost of the metrics wrapper:
// every counter, gauge and histogram is resolved when the route is
// registered, so wrapping a no-op handler allocates only the status
// recorder.
func TestInstrumentAllocs(t *testing.T) {
	h := instrument("allocs", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	if allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, r) }); allocs > 1 {
		t.Fatalf("instrument allocates %v per request, want at most 1", allocs)
	}
}

// TestUnmatchedPathCounted checks that a 404 the mux answers for an
// unknown path reaches the metrics like a routed response: it counts
// under the unmatched route and in the 4xx class.
func TestUnmatchedPathCounted(t *testing.T) {
	_, ts := newTestServer(t, &stubInference{}, Config{})
	unmatched := obs.GetCounter("mvpar_http_requests_unmatched_total")
	class4xx := obs.GetCounter("mvpar_http_responses_4xx_total")
	unmatchedBefore, class4xxBefore := unmatched.Value(), class4xx.Value()
	resp, err := http.Get(ts.URL + "/no/such/path")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /no/such/path = %d, want 404", resp.StatusCode)
	}
	if n := unmatched.Value(); n != unmatchedBefore+1 {
		t.Errorf("mvpar_http_requests_unmatched_total went %d -> %d, want +1", unmatchedBefore, n)
	}
	if n := class4xx.Value(); n <= class4xxBefore {
		t.Errorf("mvpar_http_responses_4xx_total stayed at %d after a 404", n)
	}
}
