package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
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
