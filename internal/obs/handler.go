package obs

import "net/http"

// Handler returns the /metrics endpoint of the registry: the Prometheus
// text exposition format (version 0.0.4) for every request.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", PrometheusContentType)
		r.WritePrometheus(w)
	})
}

// Handler returns the default registry's /metrics handler.
func Handler() http.Handler { return defaultRegistry.Handler() }
