package serve

import (
	"fmt"
	"net/http"
	"time"

	"mvpar/internal/obs"
)

// statusWriter records the response code a handler chose (200 when it
// never called WriteHeader explicitly).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a route with the mvpar_http_* metric families:
// request counters (total, per route, per status class), a latency
// histogram (total and per route, seconds), and the in-flight gauge.
// Every metric is resolved here, when the route is registered, so a
// request pays for no name building and no registry lookup.
func instrument(route string, h http.Handler) http.Handler {
	total := obs.GetCounter("mvpar_http_requests_total")
	routeTotal := obs.GetCounter("mvpar_http_requests_" + route + "_total")
	inflight := obs.GetGauge("mvpar_http_inflight_requests")
	seconds := obs.GetHistogram("mvpar_http_request_seconds")
	routeSeconds := obs.GetHistogram("mvpar_http_request_" + route + "_seconds")
	var classes [6]*obs.Counter // 1xx..5xx; net/http rejects codes past 999
	for c := 1; c < len(classes); c++ {
		classes[c] = obs.GetCounter(fmt.Sprintf("mvpar_http_responses_%dxx_total", c))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		total.Inc()
		routeTotal.Inc()
		inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			inflight.Add(-1)
			elapsed := time.Since(start).Seconds()
			seconds.Observe(elapsed)
			routeSeconds.Observe(elapsed)
			if c := sw.code / 100; c > 0 && c < len(classes) {
				classes[c].Inc()
			} else {
				obs.GetCounter(fmt.Sprintf("mvpar_http_responses_%dxx_total", c)).Inc()
			}
		}()
		h.ServeHTTP(sw, r)
	})
}
