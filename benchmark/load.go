package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"time"
)

// The wire format of POST /v1/classify, declared here rather than
// imported so the benchmark sees the server only through its HTTP API.
type wireRequest struct {
	Name    string `json:"name"`
	Source  string `json:"source"`
	Timings bool   `json:"timings,omitempty"`
}

type wirePrediction struct {
	LoopID   int     `json:"loop_id"`
	Func     string  `json:"func"`
	Line     int     `json:"line"`
	Parallel bool    `json:"parallel"`
	Proba    float64 `json:"proba"`
	Oracle   bool    `json:"oracle"`
	Degraded bool    `json:"degraded"`
}

type wireResponse struct {
	Name        string           `json:"name"`
	Predictions []wirePrediction `json:"predictions"`
	Cached      bool             `json:"cached"`
	Precision   string           `json:"precision"`
	Timings     []wireSpan       `json:"timings"`
}

type wireSpan struct {
	Span    uint64  `json:"span"`
	Parent  uint64  `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// outcome classifies one request. Everything but outcomeOK counts in
// error_rate.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeShed
	outcomeStatus // any other non-200
	outcomeTransport
	outcomeTimeout
)

// loadConfig is one pass of the load driver. Every request of a pass is
// measured; a warm-up is a pass of its own whose numbers are discarded.
type loadConfig struct {
	url     string // classify endpoint
	length  time.Duration
	start   int        // stream index of the first request
	timings bool       // ask every request for its span tree
	ref     *refKernel // timed every refEvery, between requests
}

// tally accumulates one pass.
type tally struct {
	attempted int
	ok        int
	byOutcome [outcomeTimeout + 1]int
	latencies []float64 // ms, 200 answers
	refs      []float64 // the reference kernel's times, ms
	layers    []map[string]float64
	problems  []string // failed correctness checks
	begin     time.Time
	end       time.Time // when the last answer arrived
	next      int       // first stream index the pass did not use
}

const maxProblems = 5

func (t *tally) add(req request, kind outcome, latency time.Duration, resp *wireResponse, err error) {
	if err == nil && kind == outcomeOK {
		err = checkAnswer(req, resp)
	}
	t.attempted++
	t.byOutcome[kind]++
	if kind == outcomeOK {
		t.ok++
		t.latencies = append(t.latencies, ms(latency))
	}
	if err == nil && resp != nil && len(resp.Timings) > 0 {
		t.layers = append(t.layers, spanLayers(resp.Timings))
	}
	if err != nil {
		t.problem(fmt.Sprintf("%s: %v", req.name, err))
	}
	t.end = time.Now()
}

// problem records a failed check.
func (t *tally) problem(msg string) {
	switch {
	case len(t.problems) < maxProblems:
		t.problems = append(t.problems, msg)
	case len(t.problems) == maxProblems:
		t.problems = append(t.problems, "... more failed checks")
	}
}

// merge adds the pass u, which ran right after t, to t. The merged pass
// lasts as long as the two together. Problems and span layers stay with u.
func (t *tally) merge(u *tally) {
	t.attempted += u.attempted
	t.ok += u.ok
	for k, n := range u.byOutcome {
		t.byOutcome[k] += n
	}
	t.latencies = append(t.latencies, u.latencies...)
	t.refs = append(t.refs, u.refs...)
	t.end = t.end.Add(u.end.Sub(u.begin))
	t.next = u.next
}

func (t *tally) failed() int { return t.attempted - t.ok }

// errorRate is (non-200 + 429 + transport errors + timeouts) / attempted.
func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failed()) / float64(t.attempted)
}

// seconds is how long the pass lasted, from its start to its last answer.
func (t *tally) seconds() float64 { return t.end.Sub(t.begin).Seconds() }

// rps is 200 answers per second of the pass.
func (t *tally) rps() float64 { return float64(t.ok) / t.seconds() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newClient is the load driver's HTTP client: one keep-alive connection.
func newClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// runLoad drives one closed-loop pass against cfg.url with the stream gen:
// one client sends its next request as soon as the previous one is
// answered, until cfg.length has passed. Latency runs from send. Every
// answer is checked with checkAnswer. Between requests, while the server
// is idle, the client times the reference kernel every refEvery.
func runLoad(ctx context.Context, client *http.Client, cfg loadConfig, gen func(int) request) *tally {
	t := &tally{begin: time.Now(), next: cfg.start}
	t.end = t.begin
	var lastRef time.Time
	for ctx.Err() == nil && time.Since(t.begin) < cfg.length {
		if time.Since(lastRef) >= refEvery {
			t.refs = append(t.refs, cfg.ref.measure())
			lastRef = time.Now()
		}
		req := gen(t.next)
		t.next++
		body := encodeRequest(req, cfg.timings)
		start := time.Now()
		resp, kind, err := post(ctx, client, cfg.url, body)
		t.add(req, kind, time.Since(start), resp, err)
	}
	return t
}

func encodeRequest(req request, timings bool) []byte {
	body, err := json.Marshal(wireRequest{Name: req.name, Source: req.source, Timings: timings})
	if err != nil {
		panic(err) // strings always marshal
	}
	return body
}

// post sends one request. A 200 whose body does not decode is an outcomeOK
// with an error, which fails the correctness gate.
func post(ctx context.Context, client *http.Client, url string, body []byte) (*wireResponse, outcome, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, outcomeTransport, nil
	}
	hreq.Header.Set("Content-Type", "application/json")
	res, err := client.Do(hreq)
	if err != nil {
		return nil, transportOutcome(err), nil
	}
	data, err := io.ReadAll(res.Body)
	res.Body.Close()
	switch {
	case err != nil:
		return nil, transportOutcome(err), nil
	case res.StatusCode == http.StatusTooManyRequests:
		return nil, outcomeShed, nil
	case res.StatusCode != http.StatusOK:
		return nil, outcomeStatus, nil
	}
	var resp wireResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, outcomeOK, fmt.Errorf("undecodable answer: %w", err)
	}
	return &resp, outcomeOK, nil
}

func transportOutcome(err error) outcome {
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return outcomeTimeout
	}
	return outcomeTransport
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported.
const minBeyond = 10

// percentile is the nearest-rank p-th percentile of samples. It reports
// false when fewer than minBeyond samples lie beyond it. samples is
// sorted in place.
func percentile(samples []float64, p float64) (float64, bool) {
	sort.Float64s(samples)
	n := len(samples)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return samples[rank-1], true
}

// median is the middle of samples, sorted in place; 0 for none.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	n := len(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}
