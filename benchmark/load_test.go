package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// testStream is a stream of one-loop programs named r<i> whose loop 1 is
// parallel.
func testStream(i int) request {
	return request{name: fmt.Sprintf("r%d", i), source: "void main() {}", loops: 1, oracle: map[int]bool{1: true}}
}

func okAnswer(name string) wireResponse {
	return wireResponse{Name: name, Precision: "float64", Predictions: []wirePrediction{{LoopID: 1, Parallel: true, Oracle: true}}}
}

// fakeServer answers every classify request with okAnswer unless answer,
// when given, has already written the response.
func fakeServer(t *testing.T, answer func(http.ResponseWriter, wireRequest) bool) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wireRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if answer != nil && answer(w, req) {
			return
		}
		json.NewEncoder(w).Encode(okAnswer(req.Name))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func index(name string) int {
	i, _ := strconv.Atoi(strings.TrimPrefix(name, "r"))
	return i
}

// testClient is the load driver's client with a test's timeout.
func testClient(t *testing.T, timeout time.Duration) *http.Client {
	c := newClient(timeout)
	t.Cleanup(c.CloseIdleConnections)
	return c
}

// TestClosedLoopAccounting runs two passes back to back, as the measured
// pass's blocks do: the client sends one request at a time, each stream
// index once, and the merged tally adds the two up.
func TestClosedLoopAccounting(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]bool{}
	inFlight := 0
	srv := fakeServer(t, func(_ http.ResponseWriter, req wireRequest) bool {
		mu.Lock()
		inFlight++
		if inFlight > 1 {
			t.Errorf("request %s sent while another was in flight", req.Name)
		}
		if seen[req.Name] {
			t.Errorf("request %s sent twice", req.Name)
		}
		seen[req.Name] = true
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return false
	})
	client := testClient(t, time.Second)
	const start = 40
	cfg := loadConfig{url: srv.URL, ref: newRefKernel(), length: 150 * time.Millisecond, start: start}
	first := runLoad(context.Background(), client, cfg, testStream)
	cfg.start = first.next
	second := runLoad(context.Background(), client, cfg, testStream)
	now := time.Now()
	tl := &tally{begin: now, end: now, next: start}
	tl.merge(first)
	tl.merge(second)

	mu.Lock()
	defer mu.Unlock()
	if first.attempted == 0 || second.attempted == 0 || tl.attempted != len(seen) {
		t.Fatalf("attempted %d + %d = %d, server saw %d", first.attempted, second.attempted, tl.attempted, len(seen))
	}
	if tl.ok != tl.attempted || len(tl.latencies) != tl.ok || tl.errorRate() != 0 || len(first.problems)+len(second.problems) != 0 {
		t.Errorf("ok %d of %d, %d latencies, error rate %v, problems %v %v", tl.ok, tl.attempted, len(tl.latencies), tl.errorRate(), first.problems, second.problems)
	}
	if tl.next != start+tl.attempted {
		t.Errorf("next index %d after %d requests from %d", tl.next, tl.attempted, start)
	}
	for name := range seen {
		if i := index(name); i < start || i >= tl.next {
			t.Errorf("sent %s outside [%d, %d)", name, start, tl.next)
		}
	}
	for _, p := range []*tally{first, second} {
		if got := p.end.Sub(p.begin); got < cfg.length {
			t.Errorf("pass lasted %v", got)
		}
		// A block's CPU time is scaled by its own kernel times, so every
		// pass times the kernel before its first request.
		if want := int(cfg.length / refEvery); len(p.refs) < 1 || len(p.refs) > want+1 {
			t.Errorf("a %v pass timed the reference kernel %d times, want 1 to %d", cfg.length, len(p.refs), want+1)
		}
	}
	if len(tl.refs) != len(first.refs)+len(second.refs) {
		t.Errorf("merged pass has %d kernel times, the two passes %d", len(tl.refs), len(first.refs)+len(second.refs))
	}
	if got, want := tl.seconds(), first.seconds()+second.seconds(); math.Abs(got-want) > 1e-6 {
		t.Errorf("merged pass lasted %v s, the two passes %v s", got, want)
	}
	if want := float64(tl.ok) / tl.seconds(); tl.rps() != want {
		t.Errorf("rps %v, want %v", tl.rps(), want)
	}
}

func TestEveryFailureCountsInErrorRate(t *testing.T) {
	srv := fakeServer(t, func(w http.ResponseWriter, req wireRequest) bool {
		switch index(req.Name) % 5 {
		case 0:
			w.WriteHeader(http.StatusTooManyRequests)
		case 1:
			w.WriteHeader(http.StatusServiceUnavailable)
		case 2:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return true
			}
			conn.Close()
		case 3:
			time.Sleep(150 * time.Millisecond)
		default:
			return false
		}
		return true
	})
	tl := runLoad(context.Background(), testClient(t, 50*time.Millisecond), loadConfig{url: srv.URL, ref: newRefKernel(), length: 500 * time.Millisecond}, testStream)
	for kind, n := range tl.byOutcome {
		if n == 0 {
			t.Errorf("no request ended in outcome %d: %v", kind, tl.byOutcome)
		}
	}
	if tl.ok != tl.byOutcome[outcomeOK] || tl.failed() != tl.attempted-tl.ok {
		t.Errorf("ok %d, failed %d, attempted %d, outcomes %v", tl.ok, tl.failed(), tl.attempted, tl.byOutcome)
	}
	if want := float64(tl.attempted-tl.ok) / float64(tl.attempted); tl.errorRate() != want || want < 0.7 {
		t.Errorf("error rate %v, want %v (about 0.8)", tl.errorRate(), want)
	}
	if len(tl.problems) != 0 {
		t.Errorf("failed requests reported as wrong answers: %v", tl.problems)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	if v, ok := percentile(samples(100), 90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(samples(100), 99); ok {
		t.Error("p99 of 100 samples has 1 beyond it and must be refused")
	}
	if _, ok := percentile(samples(1010), 99); !ok {
		t.Error("p99 of 1010 samples has 10 beyond it")
	}
	if _, ok := percentile(samples(19), 50); ok {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, ok := percentile(samples(20), 50); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
}
