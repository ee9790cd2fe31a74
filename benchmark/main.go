// Command benchmark is mvpar's end-to-end benchmark. It builds
// ./cmd/mvpar from source, trains the -quick checkpoint, boots `mvpar
// serve` and drives it over HTTP with seeded workloads, checking every
// answer. See README.md.
//
//	bash benchmark/run.sh -workload <name|all> -seed <n> [-seconds 30] [-trace 0|1] [-out file.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"mvpar/internal/core"
)

const (
	// requestTimeout bounds one request; a slower answer is an error.
	requestTimeout = 10 * time.Second
	// blockLength is the length of one block of the measured pass; the
	// server's CPU time is read between blocks.
	blockLength = time.Second
)

// options are one invocation's settings.
type options struct {
	root      string // repository to build and serve
	work      string // build outputs and checkpoints
	seed      int64
	warmup    time.Duration
	window    time.Duration
	trace     bool
	boots     int // server boots setup_s is the median of
	verify    int // size of the verify set
	inProcess int // programs of the in-process pass
}

func main() { os.Exit(benchMain()) }

func benchMain() int {
	name := flag.String("workload", "all", "tiny-uncached, npb-uncached, or all")
	seed := flag.Int64("seed", 1, "seed of every generated program")
	seconds := flag.Int("seconds", 30, "length of the measured window in seconds")
	traceRun := flag.Int("trace", 0, "1 reports per-layer metrics (a traced pass and an in-process pass)\ninstead of the end-to-end metrics")
	out := flag.String("out", "", "also write the final JSON result to this file")
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || (*traceRun != 0 && *traceRun != 1) {
		flag.Usage()
		return 2
	}
	all, err := workloads()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var selected []*workload
	for _, w := range all {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	o := options{
		root:      root,
		work:      filepath.Join(root, ".bench_build"),
		seed:      *seed,
		warmup:    3 * time.Second,
		window:    time.Duration(*seconds) * time.Second,
		trace:     *traceRun == 1,
		boots:     7,
		verify:    64,
		inProcess: 200,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o, selected, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if *out != "" {
		if err := os.WriteFile(*out, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// findRoot locates the repository: the working directory, or its parent
// when run from this directory.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "mvpar")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("no cmd/mvpar here or in the parent directory: run from the repository root")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one workload's outcome.
type report struct {
	workload  string
	metrics   map[string]metric
	notes     []string // printed, not reported: sample counts, error rate, stage shares
	attempted int
	failed    int
	problems  []string
}

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("%s is %v", name, v)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(name string, v float64, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("%s %s %.6g %s", r.workload, name, v, unit))
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) absorb(t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed()
	r.problems = append(r.problems, t.problems...)
	if n := t.byOutcome; t.failed() > 0 {
		r.fail("%d of %d requests failed: %d shed (429), %d other non-200, %d transport errors, %d timeouts",
			t.failed(), t.attempted, n[outcomeShed], n[outcomeStatus], n[outcomeTransport], n[outcomeTimeout])
	}
}

// run prepares once, then runs each workload on a server of its own and
// prints its metrics as `workload metric value unit` lines to w. With
// more than one workload, result metrics are named workload.metric.
func run(ctx context.Context, o options, ws []*workload, w io.Writer) (*result, error) {
	e, err := prepare(ctx, o)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range ws {
		r, err := runWorkload(ctx, o, e, wl)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		names := make([]string, 0, len(r.metrics))
		for name := range r.metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := r.metrics[name]
			fmt.Fprintf(w, "%s %s %.6g %s\n", wl.name, name, m.Value, m.Unit)
			if len(ws) > 1 {
				name = wl.name + "." + name
			}
			res.Metrics[name] = m
		}
		for _, n := range r.notes {
			fmt.Fprintln(w, n)
		}
		for _, p := range r.problems {
			fmt.Fprintf(os.Stderr, "%s FAIL: %s\n", wl.name, p)
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Correct = res.Correct && len(r.problems) == 0 && r.failed == 0
	}
	return res, nil
}

// env is what every workload of one invocation shares.
type env struct {
	bin, ckpt   string
	pl          *core.Pipeline
	cls         *core.Classifier
	fingerprint string
}

// prepare builds the server, trains (or reuses) its checkpoint and loads
// the same checkpoint in process.
func prepare(ctx context.Context, o options) (*env, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildServer(ctx, o.root, o.work)
	if err != nil {
		return nil, err
	}
	ckpt, err := checkpoint(ctx, bin, o.work)
	if err != nil {
		return nil, err
	}
	pl, err := loadPipeline(ctx, ckpt)
	if err != nil {
		return nil, err
	}
	cls, err := pl.Classifier()
	if err != nil {
		return nil, err
	}
	return &env{bin: bin, ckpt: ckpt, pl: pl, cls: cls, fingerprint: cls.Fingerprint()}, nil
}

// runWorkload boots a server, measures one workload on it and checks
// every answer. An error means the benchmark itself could not run; a
// wrong answer is a problem in the report.
func runWorkload(ctx context.Context, o options, e *env, w *workload) (*report, error) {
	r := &report{workload: w.name, metrics: map[string]metric{}}
	ref := newRefKernel()
	boots := o.boots
	if o.trace {
		boots = 1 // setup_s is not reported
	}
	// Each boot is scaled by the reference kernel's time just before the
	// exec and just after the server is ready, when it is idle.
	var srv *server
	var bootSeconds, bootScaled []float64
	for b := 0; b < boots; b++ {
		if srv != nil {
			srv.stop()
		}
		before := ref.medianOf(refBootRuns)
		s, took, err := startServer(ctx, e.bin, e.ckpt)
		if err != nil {
			return nil, err
		}
		srv = s
		refMS := (before + ref.medianOf(refBootRuns)) / 2
		bootSeconds = append(bootSeconds, took.Seconds())
		bootScaled = append(bootScaled, atReferenceSpeed(took.Seconds(), refMS))
	}
	defer srv.stop()
	fp, err := srv.fingerprint(ctx)
	if err != nil {
		return nil, err
	}
	if fp != e.fingerprint {
		r.fail("/healthz fingerprint %s, in process %s", fp, e.fingerprint)
	}

	gen := func(i int) request { return w.gen(o.seed, i) }
	client := newClient(requestTimeout)
	defer client.CloseIdleConnections()
	pass := func(length time.Duration, start int, timings bool) *tally {
		t := runLoad(ctx, client, loadConfig{url: srv.base + "/v1/classify", length: length, start: start, timings: timings, ref: ref}, gen)
		r.absorb(t)
		return t
	}
	window := o.window
	if o.trace {
		window /= 2 // the traced pass takes the other half
	}
	warm := pass(o.warmup, 0, false)
	before, err := srv.counters(ctx)
	if err != nil {
		return nil, err
	}
	// The measured pass runs in blocks. Each block's server CPU time per
	// answer is scaled by the reference kernel's median time in the
	// block, and cpu_ms_per_req is the median over blocks, so neither a
	// phase of the host nor one block slowed by a garbage collection
	// moves it. The resident set is sampled between blocks.
	blocks := max(1, int(window/blockLength))
	var costs, scaledCosts, rss []float64
	now := time.Now()
	meas := &tally{begin: now, end: now, next: warm.next}
	for b := 0; b < blocks; b++ {
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		t := pass(window/time.Duration(blocks), meas.next, false)
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		mb, err := srv.rssMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, mb)
		if t.ok > 0 {
			cost := 1000 * (cpu1 - cpu0) / float64(t.ok)
			costs = append(costs, cost)
			scaledCosts = append(scaledCosts, atReferenceSpeed(cost, median(t.refs)))
		}
		meas.merge(t)
	}
	after, err := srv.counters(ctx)
	if err != nil {
		return nil, err
	}
	peak, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	if hits := delta("mvpar_http_cache_hits_total"); hits != 0 {
		r.fail("%v cache hits on an uncached stream", hits)
	}
	p50, ok50 := percentile(meas.latencies, 50)
	p95, ok95 := percentile(meas.latencies, 95)

	var traced *tally
	if o.trace {
		traced = pass(window, meas.next, true)
	}
	agreement := verify(ctx, e, client, srv, w, o.verify, r)
	srv.stop()

	if !o.trace {
		r.set("setup_s", median(bootScaled), "s")
		r.set("cpu_ms_per_req", median(scaledCosts), "ms")
		r.set("server_rss_mb", median(rss), "MB")
		r.set("oracle_agreement", agreement, "ratio")
		// Unscaled numbers, which move with the speed of the host: ref_ms
		// is the reference kernel's median time over the measured pass.
		r.note("ref_ms", median(meas.refs), "ms")
		r.note("wall.setup_s", median(bootSeconds), "s")
		r.note("wall.cpu_ms_per_req", median(costs), "ms")
		if ok50 {
			r.note("latency_p50_ms", p50, "ms")
		}
		if ok95 {
			r.note("latency_p95_ms", p95, "ms")
		}
		r.note("latency_samples", float64(len(meas.latencies)), "count")
		r.note("rps", meas.rps(), "req/s")
		r.note("error_rate", meas.errorRate(), "ratio")
		r.note("server_peak_rss_mb", peak, "MB")
		return r, nil
	}

	for _, name := range spanMetrics {
		var vs []float64
		for _, l := range traced.layers {
			if v, ok := l[name]; ok {
				vs = append(vs, v)
			}
		}
		r.set(name, median(vs), "us")
	}
	// Both passes' medians at reference speed, so a phase of the host that
	// covers one pass only does not show as overhead.
	overhead := atReferenceSpeed(median(traced.latencies), median(traced.refs)) /
		atReferenceSpeed(median(meas.latencies), median(meas.refs))
	r.set("trace.overhead_pct", (overhead-1)*100, "%")
	r.set("serve.request_mean_us", 1e6*ratio(delta("mvpar_http_request_classify_seconds_sum"), delta("mvpar_http_request_classify_seconds_count")), "us")

	reqs := make([]request, o.inProcess)
	for i := range reqs {
		reqs[i] = gen(i)
	}
	layer, shares, err := inProcessLayers(ctx, e.pl, e.cls, reqs)
	if err != nil {
		return nil, err
	}
	for name, v := range layer {
		switch name {
		case "loops_per_request": // describes the workload; nothing should move it
			r.note(name, v, "count")
		case "interp.steps", "peg.subpeg_nodes", "dataset.build_allocs", "core.classify_allocs":
			r.set(name, v, "count")
		default:
			r.set(name, v, "us")
		}
	}
	for _, name := range stageMetrics {
		r.note(name+".share", shares[name], "ratio")
	}
	return r, nil
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// verify sends the workload's verify set one request at a time and
// compares every answer with the in-process classification of the same
// program. It returns the share of served labels that equal the answer's
// oracle label.
func verify(ctx context.Context, e *env, client *http.Client, srv *server, w *workload, n int, r *report) float64 {
	agree, loops := 0, 0
	for _, req := range w.verifySet(n) {
		want, err := e.cls.ClassifyContext(ctx, req.name, req.source)
		if err != nil {
			r.fail("%s: in process: %v", req.name, err)
			continue
		}
		resp, kind, err := post(ctx, client, srv.base+"/v1/classify", encodeRequest(req, false))
		r.attempted++
		if kind != outcomeOK {
			r.failed++
			continue
		}
		if err == nil {
			err = checkAnswer(req, resp)
		}
		if err == nil {
			err = sameAnswer(resp, want)
		}
		if err != nil {
			r.fail("verify %s: %v", req.name, err)
			continue
		}
		for _, p := range resp.Predictions {
			loops++
			if p.Parallel == p.Oracle {
				agree++
			}
		}
	}
	return ratio(float64(agree), float64(loops))
}
