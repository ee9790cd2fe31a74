// Command mvpar is the command-line front end of the library: it profiles
// MiniC programs, dumps dependence results and PEGs, trains the multi-view
// model on the built-in corpus, and classifies the loops of user programs.
//
// Usage:
//
//	mvpar oracle  <file.mc>          # profile and print per-loop verdicts
//	mvpar peg     <file.mc>          # emit the program execution graph (DOT)
//	mvpar subpeg  <file.mc> <loopID> # emit one loop's sub-PEG (DOT)
//	mvpar tools   <file.mc>          # static/dynamic tool decisions per loop
//	mvpar train   [-model out.gob]   # train MV-GNN on the built-in corpus
//	mvpar classify <file.mc>         # train (quick) then classify the file's loops
//	mvpar corpus                     # print the generated Table-II corpus stats
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mvpar/internal/bench"
	"mvpar/internal/core"
	"mvpar/internal/cu"
	"mvpar/internal/dataset"
	"mvpar/internal/deps"
	"mvpar/internal/eval"
	"mvpar/internal/features"
	"mvpar/internal/gnn"
	"mvpar/internal/inst2vec"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/loadgen"
	"mvpar/internal/minic"
	"mvpar/internal/obs"
	"mvpar/internal/peg"
	"mvpar/internal/pool"
	"mvpar/internal/sched"
	"mvpar/internal/serve"
	"mvpar/internal/tools"
	"mvpar/internal/walks"
)

func main() {
	logLevel := flag.String("log-level", "", "structured log level: debug|info|warn|error (default silent; also $MVPAR_LOG)")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry to this file on exit (Prometheus text format)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	timeout := flag.Duration("timeout", 0, "abort the command after this duration (e.g. 30s; 0 = no limit)")
	jobs := flag.Int("jobs", 0, "worker count for dataset build, training and evaluation (0 = NumCPU, 1 = serial)")
	flag.Usage = usage
	flag.Parse()
	pool.SetDefaultParallelism(*jobs)
	if *logLevel != "" {
		lvl, err := obs.ParseLevel(*logLevel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mvpar:", err)
			os.Exit(2)
		}
		obs.SetLevel(lvl)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "mvpar: pprof:", err)
			}
		}()
	}
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	args := flag.Args()[1:]
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var err error
	switch cmd {
	case "oracle":
		err = cmdOracle(ctx, args)
	case "peg":
		err = cmdPEG(ctx, args)
	case "subpeg":
		err = cmdSubPEG(ctx, args)
	case "tools":
		err = cmdTools(ctx, args)
	case "train":
		err = cmdTrain(ctx, args)
	case "classify":
		err = cmdClassify(ctx, args)
	case "serve":
		err = cmdServe(ctx, args)
	case "loadgen":
		err = cmdLoadgen(ctx, args)
	case "loadgate":
		err = cmdLoadgate(args)
	case "parity":
		err = cmdParity(ctx, args)
	case "corpus":
		err = cmdCorpus(args)
	case "speedup":
		err = cmdSpeedup(ctx, args)
	case "dataset":
		err = cmdDataset(ctx, args)
	case "explain":
		err = cmdExplain(ctx, args)
	default:
		usage()
		os.Exit(2)
	}
	if *metricsOut != "" {
		if derr := dumpMetrics(*metricsOut); derr != nil {
			fmt.Fprintln(os.Stderr, "mvpar: metrics:", derr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvpar:", err)
		os.Exit(1)
	}
}

// dumpMetrics writes the process-wide metrics registry to path in the
// Prometheus text exposition format.
func dumpMetrics(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: mvpar [global flags] <command> [args]

global flags (before the command):
  -log-level LEVEL   structured logging: debug|info|warn|error (default silent; also $MVPAR_LOG)
  -metrics-out FILE  write the metrics registry to FILE on exit (Prometheus text)
  -pprof ADDR        serve net/http/pprof on ADDR (e.g. localhost:6060)
  -timeout DUR       abort the command after DUR (e.g. 30s; 0 = no limit)
  -jobs N            worker count for dataset build, training and evaluation
                     (0 = NumCPU, 1 = serial; results are identical either way)

commands:
  oracle   <file.mc>           profile a program, print per-loop verdicts
  peg      <file.mc>           print the program execution graph in DOT
  subpeg   <file.mc> <loopID>  print one loop's sub-PEG in DOT
  tools    <file.mc>           per-loop decisions of Pluto/AutoPar/DiscoPoP emulators
  train    [-model FILE]       train the MV-GNN on the built-in corpus
  classify [-quick] <file.mc>  train, then classify the file's loops
  serve    [-model FILE] [-addr :8080] [-precision float64|int8]
                               long-lived HTTP inference service with bounded
                               admission, degraded-mode fallback and atomic
                               model hot swap (POST /v1/classify, POST
                               /v1/models/reload or SIGHUP, GET /v1/models,
                               /healthz, /readyz, /metrics, /debug/traces;
                               -trace-slow for telemetry, the global -pprof
                               for profiles); -models serves extra named
                               models; -precision int8 serves the integer
                               tier;
                               see mvpar serve -h, docs/serving.md,
                               docs/performance.md and docs/observability.md
  loadgen  [-url http://127.0.0.1:8080] [-mode closed|open] [-concurrency 8]
           [-rate RPS] [-duration 10s] [-warmup 2s] [-out FILE]
                               drive a running serve instance with closed- or
                               open-loop traffic and print a JSON report with
                               sustained RPS, p50/p95/p99 latency and error/
                               shed counts; -max-errors 0 makes error-free
                               runs a hard requirement (CI smoke)
  loadgate -report FILE [-baseline LOAD_BASELINE.json]
                               compare a loadgen report against the checked-in
                               baseline; non-zero exit on RPS or p99
                               regression beyond -max-rps-drop/-max-p99-rise
  parity   [-model FILE] [-tol 0.005] [-max-flips 12]
                               accuracy-parity gate of the int8 tier:
                               predict every corpus loop under float64 and
                               int8, fail on label flips beyond -max-flips
                               or per-suite accuracy drift beyond -tol (the
                               defaults are int8's documented budget)
  corpus   [-dump DIR]         print (or dump) the generated benchmark corpus
  speedup  <file.mc> [threads] simulate parallel execution of every loop
  dataset  [-out FILE]         build the corpus dataset and export it as JSON
  explain  <file.mc> <loopID>  dump everything known about one loop`)
}

func loadSource(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

func cmdOracle(ctx context.Context, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("oracle: expected one source file")
	}
	src, err := loadSource(args[0])
	if err != nil {
		return err
	}
	prog, res, err := core.ProfileSourceContext(ctx, args[0], src)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-10s %-6s %-14s %s\n", "loop", "func", "line", "verdict", "notes")
	for _, id := range prog.LoopIDs() {
		meta := prog.Loops[id]
		v := res.Verdicts[id]
		verdict := "parallel"
		note := ""
		if v.HasReduction {
			note = "reduction"
		}
		if !v.Parallelizable {
			verdict = "sequential"
			if len(v.Reasons) > 0 {
				note = v.Reasons[0]
			}
		}
		fmt.Printf("%-6d %-10s %-6d %-14s %s\n", id, meta.Func, meta.Line, verdict, note)
	}
	return nil
}

func buildPEG(ctx context.Context, path string) (*peg.PEG, *ir.Program, error) {
	src, err := loadSource(path)
	if err != nil {
		return nil, nil, err
	}
	ast, err := minic.Parse(path, src)
	if err != nil {
		return nil, nil, err
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		return nil, nil, err
	}
	res, _, err := deps.Analyze(prog, "main", interp.Limits{Ctx: ctx})
	if err != nil {
		return nil, nil, err
	}
	return peg.Build(prog, cu.Build(prog), res), prog, nil
}

func cmdPEG(ctx context.Context, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("peg: expected one source file")
	}
	p, _, err := buildPEG(ctx, args[0])
	if err != nil {
		return err
	}
	fmt.Print(p.DOT("peg"))
	return nil
}

func cmdSubPEG(ctx context.Context, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("subpeg: expected source file and loop ID")
	}
	loopID, err := strconv.Atoi(args[1])
	if err != nil {
		return fmt.Errorf("subpeg: bad loop ID %q", args[1])
	}
	p, prog, err := buildPEG(ctx, args[0])
	if err != nil {
		return err
	}
	if _, ok := prog.Loops[loopID]; !ok {
		return fmt.Errorf("subpeg: no loop %d (have %v)", loopID, prog.LoopIDs())
	}
	fmt.Print(p.Extract(loopID).DOT(fmt.Sprintf("loop%d", loopID)))
	return nil
}

func cmdTools(ctx context.Context, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("tools: expected one source file")
	}
	src, err := loadSource(args[0])
	if err != nil {
		return err
	}
	ast, err := minic.Parse(args[0], src)
	if err != nil {
		return err
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		return err
	}
	res, _, err := deps.Analyze(prog, "main", interp.Limits{Ctx: ctx})
	if err != nil {
		return err
	}
	st := tools.AnalyzeStatic(ast)
	fmt.Printf("%-6s %-8s %-8s %-8s %-8s\n", "loop", "oracle", "pluto", "autopar", "discopop")
	for _, id := range prog.LoopIDs() {
		v := res.Verdicts[id]
		fmt.Printf("%-6d %-8s %-8s %-8s %-8s\n", id,
			yn(v.Parallelizable), yn(st.Pluto[id]), yn(st.AutoPar[id]), yn(tools.DiscoPoPRule(v)))
	}
	return nil
}

func yn(b bool) string {
	if b {
		return "par"
	}
	return "seq"
}

func trainOptions(quick bool) core.Options {
	opts := core.DefaultOptions()
	if quick {
		opts.Data = dataset.Config{
			Variants:   2,
			WalkParams: walks.Params{Length: 4, Gamma: 12},
			WalkLen:    4,
			EmbedCfg:   inst2vec.DefaultConfig,
			Seed:       1,
			LabelNoise: 0.05,
		}
		opts.Train = gnn.TrainConfig{Epochs: 10, LR: 0.003, Temperature: 0.5, ClipNorm: 5, BatchSize: 8, Seed: 1}
	}
	return opts
}

func cmdTrain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	modelPath := fs.String("model", "", "write trained model parameters to this file")
	quick := fs.Bool("quick", false, "use the fast configuration")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pl := core.NewPipeline(trainOptions(*quick))
	report, err := pl.TrainOnContext(ctx, bench.Corpus())
	if err != nil {
		return err
	}
	fmt.Printf("trained on %d records (test %d): train acc %.1f%%, test acc %.1f%%\n",
		report.TrainRecords, report.TestRecords, 100*report.TrainAcc, 100*report.TestAcc)
	if report.Build != nil && report.Build.Quarantine.Len() > 0 {
		fmt.Fprintln(os.Stderr, report.Build.Quarantine)
	}
	if *modelPath != "" {
		f, err := os.Create(*modelPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pl.SaveModel(f); err != nil {
			return err
		}
		fmt.Println("model written to", *modelPath)
	}
	return nil
}

func cmdClassify(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	quick := fs.Bool("quick", true, "use the fast training configuration")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("classify: expected one source file")
	}
	src, err := loadSource(fs.Arg(0))
	if err != nil {
		return err
	}
	pl := core.NewPipeline(trainOptions(*quick))
	if _, err := pl.TrainOnContext(ctx, bench.Corpus()); err != nil {
		return err
	}
	preds, err := pl.ClassifySourceContext(ctx, fs.Arg(0), src)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-10s %-6s %-10s %-8s %s\n", "loop", "func", "line", "predicted", "P(par)", "oracle")
	for _, p := range preds {
		fmt.Printf("%-6d %-10s %-6d %-10s %-8.3f %s\n",
			p.LoopID, p.Func, p.Line, yn(p.Parallel), p.Proba, yn(p.Oracle))
	}
	return nil
}

// cmdServe trains (or loads) a model once, then serves it behind the
// long-lived HTTP service of internal/serve until SIGINT or SIGTERM,
// draining in-flight requests before exiting.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	modelPath := fs.String("model", "", "load model parameters from this file (written by `mvpar train -model`\nwith the same -quick setting) instead of training at startup")
	quick := fs.Bool("quick", true, "use the fast training/encoding configuration")
	precision := fs.String("precision", "float64", "inference engine: float64 (bit-identical reference) or int8\n(integer tier, parity-gated at a documented non-zero budget by\n`mvpar parity`)")
	maxQueue := fs.Int("max-queue", 64, "how many requests may wait for a worker slot; requests past it are shed with 429")
	workers := fs.Int("workers", 0, "worker slots: classifications that run at once (0 = the --jobs / NumCPU default)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request classification deadline")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "graceful shutdown bound")
	drainGrace := fs.Duration("drain-grace", 0, "keep serving this long after SIGTERM while /readyz reports\n503 draining, so load balancers stop routing before the listener\ncloses (e.g. 2s)")
	models := fs.String("models", "", "extra registry models, comma-separated name=path[@precision]\nentries: a path loads that checkpoint (hot-reloadable per model\nvia POST /v1/models/reload?model=NAME), an empty path shares the\ndefault model's weights at the given precision, e.g.\n\"fast=@int8,retrained=ckpt.bin,r8=ckpt.bin@int8\"")
	traceSlow := fs.Duration("trace-slow", 0, "trace every request and retain those slower than this\nthreshold at /debug/traces (e.g. 250ms; 0 disables capture)")
	traceRing := fs.Int("trace-ring", 64, "how many slow-request traces /debug/traces retains (-1 disables retention)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}
	prec, err := core.ParsePrecision(*precision)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	pl := core.NewPipeline(trainOptions(*quick))
	if *modelPath != "" {
		fmt.Fprintln(os.Stderr, "serve: building encoder state...")
		if err := pl.PrepareContext(ctx, bench.Corpus()); err != nil {
			return err
		}
		f, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pl.LoadModel(f); err != nil {
			return fmt.Errorf("serve: loading %s (was it trained with -quick=%v?): %w", *modelPath, *quick, err)
		}
		fmt.Fprintln(os.Stderr, "serve: model loaded from", *modelPath)
	} else {
		fmt.Fprintln(os.Stderr, "serve: no -model given, training on the built-in corpus...")
		report, err := pl.TrainOnContext(ctx, bench.Corpus())
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "serve: trained, test acc %.1f%%\n", 100*report.TestAcc)
	}
	cls, err := pl.ClassifierPrecision(prec)
	if err != nil {
		return err
	}
	// Hot reload re-reads the checkpoint file; without -model there is no
	// checkpoint to re-read, so /v1/models/reload answers 501.
	var loader serve.Loader
	if *modelPath != "" {
		path := *modelPath
		loader = func(context.Context) (serve.Inference, error) {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			if _, err := pl.ReloadModel(bytes.NewReader(data)); err != nil {
				return nil, err
			}
			return pl.ClassifierPrecision(prec)
		}
	}
	specs := []serve.ModelSpec{{Name: serve.DefaultModel, Inference: cls, Loader: loader}}
	if *models != "" {
		extra, err := modelSpecsFromFlag(pl, *models, *quick)
		if err != nil {
			return err
		}
		specs = append(specs, extra...)
	}
	srv, err := serve.NewMulti(specs, serve.Config{
		Addr:           *addr,
		MaxQueue:       *maxQueue,
		Workers:        *workers,
		RequestTimeout: *reqTimeout,
		DrainTimeout:   *drainTimeout,
		DrainGrace:     *drainGrace,
		Version:        buildVersion,
		TraceSlow:      *traceSlow,
		TraceRing:      *traceRing,
	})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	sctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	// SIGHUP triggers the same atomic hot swap as POST /v1/models/reload.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			res, rerr := srv.Reload(sctx)
			if rerr != nil {
				fmt.Fprintln(os.Stderr, "serve: reload:", rerr)
				continue
			}
			fmt.Fprintf(os.Stderr, "serve: reloaded, now generation %d (%s)\n", res.Generation, res.Fingerprint)
		}
	}()
	fmt.Fprintf(os.Stderr, "serve: listening on %s (SIGINT/SIGTERM drains and exits, SIGHUP hot-swaps -model)\n", *addr)
	return srv.ListenAndServe(sctx)
}

// loadgenCorpus is the built-in request mix `mvpar loadgen` cycles over
// when no -corpus file is given: a map, a reduction and a recurrence,
// so the measured traffic exercises both label classes and the
// structural-view sampler, not just one program.
func loadgenCorpus() []loadgen.Program {
	return []loadgen.Program{
		{Name: "lg-map", Source: `
float a[64]; float b[64];
void main() { for (int i = 0; i < 64; i++) { a[i] = b[i] * 2.0; } }
`},
		{Name: "lg-reduce", Source: `
float a[64]; float s[1];
void main() { for (int i = 0; i < 64; i++) { s[0] = s[0] + a[i]; } }
`},
		{Name: "lg-recurrence", Source: `
float a[64];
void main() { for (int i = 1; i < 64; i++) { a[i] = a[i-1] * 0.5; } }
`},
	}
}

// cmdLoadgen drives a running serve instance with generated traffic and
// prints the loadgen.Report JSON: the measurement half of the load
// regression gate (`mvpar loadgate` is the comparison half).
func cmdLoadgen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "server base URL")
	model := fs.String("model", "", "registry model requests select (empty = the default model)")
	mode := fs.String("mode", loadgen.ModeClosed, "traffic mode: closed (each worker fires on answer) or open\n(fixed arrival rate, bounded in-flight)")
	concurrency := fs.Int("concurrency", 8, "closed-loop worker count / open-loop in-flight cap")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in requests/second (required with -mode open)")
	duration := fs.Duration("duration", 10*time.Second, "measured window")
	warmup := fs.Duration("warmup", 2*time.Second, "unrecorded warm-up traffic before the measured window")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request timeout")
	corpusPath := fs.String("corpus", "", "JSON file with [{\"name\":...,\"source\":...}] programs to cycle over\n(default: a built-in map/reduction/recurrence mix)")
	out := fs.String("out", "", "also write the JSON report to this file")
	maxErrors := fs.Int64("max-errors", -1, "exit non-zero when the run records more than this many request\nerrors (-1 disables; 0 is the CI smoke contract)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("loadgen: unexpected arguments %v", fs.Args())
	}
	corpus := loadgenCorpus()
	if *corpusPath != "" {
		data, err := os.ReadFile(*corpusPath)
		if err != nil {
			return err
		}
		corpus = nil
		if err := json.Unmarshal(data, &corpus); err != nil {
			return fmt.Errorf("loadgen: %s: %w", *corpusPath, err)
		}
	}
	fmt.Fprintf(os.Stderr, "loadgen: %s loop against %s (%s warm-up + %s measured)...\n",
		*mode, *url, *warmup, *duration)
	report, err := loadgen.Run(ctx, loadgen.Config{
		URL:         strings.TrimRight(*url, "/"),
		Model:       *model,
		Mode:        *mode,
		Concurrency: *concurrency,
		Rate:        *rate,
		Duration:    *duration,
		Warmup:      *warmup,
		Timeout:     *reqTimeout,
		Corpus:      corpus,
	})
	if err != nil {
		return err
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	if *out != "" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *maxErrors >= 0 && report.Errors > *maxErrors {
		return fmt.Errorf("loadgen: %d request errors exceed the -max-errors %d budget", report.Errors, *maxErrors)
	}
	return nil
}

// cmdLoadgate compares a loadgen report against the checked-in baseline
// and fails on RPS or p99 regression beyond the tolerances — the load
// equivalent of the benchgate allocation gate.
func cmdLoadgate(args []string) error {
	fs := flag.NewFlagSet("loadgate", flag.ExitOnError)
	baselinePath := fs.String("baseline", "LOAD_BASELINE.json", "checked-in baseline report")
	reportPath := fs.String("report", "", "loadgen report to judge (required)")
	maxRPSDrop := fs.Float64("max-rps-drop", 0.30, "allowed fractional RPS drop below baseline")
	maxP99Rise := fs.Float64("max-p99-rise", 0.50, "allowed fractional p99 rise above baseline")
	minRequests := fs.Int64("min-requests", 10, "refuse to judge runs with fewer successful requests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("loadgate: unexpected arguments %v", fs.Args())
	}
	if *reportPath == "" {
		return fmt.Errorf("loadgate: -report is required")
	}
	baseline, err := loadgen.ReadReport(*baselinePath)
	if err != nil {
		return err
	}
	current, err := loadgen.ReadReport(*reportPath)
	if err != nil {
		return err
	}
	violations, err := loadgen.Gate(baseline, current, loadgen.GateConfig{
		MaxRPSDrop:  *maxRPSDrop,
		MaxP99Rise:  *maxP99Rise,
		MinRequests: *minRequests,
	})
	if err != nil {
		return err
	}
	fmt.Printf("loadgate: baseline rps=%.1f p99=%.2fms — current rps=%.1f p99=%.2fms\n",
		baseline.RPS, baseline.LatencyP99Ms, current.RPS, current.LatencyP99Ms)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Println("loadgate: FAIL:", v)
		}
		return fmt.Errorf("loadgate: %d regression(s)", len(violations))
	}
	fmt.Println("loadgate: OK")
	return nil
}

// cmdParity is the accuracy-parity gate of the int8 tier: it trains (or
// loads) a model, predicts every corpus loop under both the float64
// reference and int8, and fails unless per-suite accuracies match within
// -tol and label flips stay within -max-flips. The defaults are int8's
// documented budget (see docs/performance.md for its rationale).
func cmdParity(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("parity", flag.ExitOnError)
	modelPath := fs.String("model", "", "load model parameters from this file (written by `mvpar train -model`\nwith the same -quick setting) instead of training at startup")
	quick := fs.Bool("quick", true, "use the fast training/encoding configuration")
	tol := fs.Float64("tol", 0.005, "allowed per-suite accuracy drift (0 = accuracies must match exactly)")
	maxFlips := fs.Int("max-flips", 12, "allowed per-loop label flips (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("parity: unexpected arguments %v", fs.Args())
	}
	const prec = core.PrecisionInt8
	pl := core.NewPipeline(trainOptions(*quick))
	if *modelPath != "" {
		fmt.Fprintln(os.Stderr, "parity: building encoder state...")
		if err := pl.PrepareContext(ctx, bench.Corpus()); err != nil {
			return err
		}
		f, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pl.LoadModel(f); err != nil {
			return fmt.Errorf("parity: loading %s (was it trained with -quick=%v?): %w", *modelPath, *quick, err)
		}
	} else {
		fmt.Fprintln(os.Stderr, "parity: no -model given, training on the built-in corpus...")
		if _, err := pl.TrainOnContext(ctx, bench.Corpus()); err != nil {
			return err
		}
	}
	ref, err := pl.Classifier()
	if err != nil {
		return err
	}
	fast, err := pl.ClassifierPrecision(prec)
	if err != nil {
		return err
	}
	pairs := make([]eval.ParityPair, 0, len(pl.Dataset.Records))
	for _, rec := range pl.Dataset.Records {
		truth := 0
		if rec.Verdict.Parallelizable {
			truth = 1
		}
		// Both tiers answer each record from the head serving uses for it.
		c64, p64 := ref.PredictRecord(ctx, rec)
		cf, pf := fast.PredictRecord(ctx, rec)
		pairs = append(pairs, eval.ParityPair{
			Suite:    rec.Meta.Suite,
			Program:  rec.Meta.Program,
			LoopID:   rec.Meta.LoopID,
			Truth:    truth,
			RefLabel: c64, RefProba: p64,
			FastLabel: cf, FastProba: pf,
		})
	}
	report := eval.Parity(pairs)
	report.Tier = prec
	fmt.Print(report.Render())
	if err := report.Check(*tol, *maxFlips); err != nil {
		return err
	}
	fmt.Printf("parity OK (%s): %d loops, %d label flips (max %d allowed), max proba drift %.2e\n",
		prec, report.N, len(report.Flips), *maxFlips, report.MaxProbaDrift)
	return nil
}

// buildVersion labels mvpar_build_info; override at link time with
// -ldflags "-X main.buildVersion=v1.2.3".
var buildVersion = "dev"

// modelSpecsFromFlag parses the -models flag — comma-separated
// name=path[@precision] entries — into registry specs. A path-bearing
// entry loads that checkpoint into its own pipeline sharing base's
// encoder state (one PrepareContext pays for every variant) and is
// hot-reloadable; a pathless entry (name=@int8) takes a classifier
// handle off base itself at the requested precision, sharing its
// weights (no loader: reloading shared weights independently would be a
// lie, so POST /v1/models/reload?model=NAME answers 501 for those).
func modelSpecsFromFlag(base *core.Pipeline, spec string, quick bool) ([]serve.ModelSpec, error) {
	var specs []serve.ModelSpec
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("serve: -models entry %q: want name=path[@precision]", entry)
		}
		path := val
		precStr := ""
		if at := strings.LastIndex(val, "@"); at >= 0 {
			path, precStr = val[:at], val[at+1:]
		}
		prec, err := core.ParsePrecision(precStr)
		if err != nil {
			return nil, fmt.Errorf("serve: -models entry %q: %w", entry, err)
		}
		if path == "" {
			cls, err := base.ClassifierPrecision(prec)
			if err != nil {
				return nil, fmt.Errorf("serve: -models entry %q: %w", entry, err)
			}
			specs = append(specs, serve.ModelSpec{Name: name, Inference: cls})
			continue
		}
		vp := core.NewPipeline(trainOptions(quick))
		if err := vp.ShareEncoder(base); err != nil {
			return nil, fmt.Errorf("serve: -models entry %q: %w", entry, err)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("serve: -models entry %q: %w", entry, err)
		}
		err = vp.LoadModel(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("serve: -models entry %q: loading %s: %w", entry, path, err)
		}
		cls, err := vp.ClassifierPrecision(prec)
		if err != nil {
			return nil, fmt.Errorf("serve: -models entry %q: %w", entry, err)
		}
		checkpoint := path
		variant := vp
		variantPrec := prec
		specs = append(specs, serve.ModelSpec{
			Name:      name,
			Inference: cls,
			Loader: func(context.Context) (serve.Inference, error) {
				data, err := os.ReadFile(checkpoint)
				if err != nil {
					return nil, err
				}
				if _, err := variant.ReloadModel(bytes.NewReader(data)); err != nil {
					return nil, err
				}
				return variant.ClassifierPrecision(variantPrec)
			},
		})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: -models %q parsed to no entries", spec)
	}
	return specs, nil
}

func cmdSpeedup(ctx context.Context, args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("speedup: expected source file and optional thread count")
	}
	threads := 8
	if len(args) == 2 {
		t, err := strconv.Atoi(args[1])
		if err != nil || t < 1 {
			return fmt.Errorf("speedup: bad thread count %q", args[1])
		}
		threads = t
	}
	src, err := loadSource(args[0])
	if err != nil {
		return err
	}
	ast, err := minic.Parse(args[0], src)
	if err != nil {
		return err
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-6s %-10s %-12s %-12s %-9s\n",
		"loop", "line", "iters", "serial", "parallel", "speedup")
	for _, id := range prog.LoopIDs() {
		dag, err := sched.BuildDAG(prog, "main", id, interp.Limits{Ctx: ctx})
		if err != nil {
			fmt.Printf("%-6d %-6d %s\n", id, prog.Loops[id].Line, err)
			continue
		}
		r := dag.Simulate(threads)
		fmt.Printf("%-6d %-6d %-10d %-12d %-12d %-9.2f\n",
			id, prog.Loops[id].Line, dag.Iterations, r.SerialTime, r.ParallelTime, r.Speedup)
	}
	return nil
}

func cmdDataset(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("dataset", flag.ExitOnError)
	out := fs.String("out", "", "write JSON here (default stdout)")
	variants := fs.Int("variants", 2, "IR variants per program")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := dataset.DefaultConfig
	cfg.Variants = *variants
	cfg.Ctx = ctx
	d, _, err := dataset.Build(bench.Corpus(), cfg)
	if err != nil {
		return err
	}
	if err := dataset.AddBaselineInputs(bench.Corpus(), d.Records, cfg); err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := dataset.Export(w, d.Records); err != nil {
		return err
	}
	if *out != "" {
		fmt.Printf("exported %d records to %s\n", len(d.Records), *out)
	}
	return nil
}

func cmdCorpus(args []string) error {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	dump := fs.String("dump", "", "write each generated program's MiniC source into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	apps := bench.Corpus()
	if *dump != "" {
		if err := os.MkdirAll(*dump, 0o755); err != nil {
			return err
		}
		for _, app := range apps {
			path := *dump + "/" + app.Name + ".mc"
			if err := os.WriteFile(path, []byte(app.Source), 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %d programs to %s\n", len(apps), *dump)
	}
	fmt.Printf("%-10s %-10s %-8s %s\n", "app", "suite", "loops", "source bytes")
	total := 0
	for _, app := range apps {
		prog := minic.MustParse(app.Name, app.Source)
		n := len(prog.Loops())
		total += n
		fmt.Printf("%-10s %-10s %-8d %d\n", app.Name, app.Suite, n, len(app.Source))
	}
	fmt.Printf("total loops: %d\n", total)
	// Per-suite summary.
	suites := map[string]int{}
	for _, app := range apps {
		prog := minic.MustParse(app.Name, app.Source)
		suites[app.Suite] += len(prog.Loops())
	}
	var names []string
	for s := range suites {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		fmt.Printf("  %s: %d loops\n", s, suites[s])
	}
	return nil
}

// cmdExplain dumps everything the pipeline knows about one loop: oracle
// verdict and evidence, Table-I features, tool decisions, the sub-PEG's
// size, and the dominant anonymous-walk types of its structural signature.
func cmdExplain(ctx context.Context, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("explain: expected source file and loop ID")
	}
	loopID, err := strconv.Atoi(args[1])
	if err != nil {
		return fmt.Errorf("explain: bad loop ID %q", args[1])
	}
	src, err := loadSource(args[0])
	if err != nil {
		return err
	}
	ast, err := minic.Parse(args[0], src)
	if err != nil {
		return err
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		return err
	}
	meta, ok := prog.Loops[loopID]
	if !ok {
		return fmt.Errorf("explain: no loop %d (have %v)", loopID, prog.LoopIDs())
	}
	res, _, err := deps.Analyze(prog, "main", interp.Limits{Ctx: ctx})
	if err != nil {
		return err
	}
	cus := cu.Build(prog)
	p := peg.Build(prog, cus, res)
	sub := p.Extract(loopID)
	v := res.Verdicts[loopID]
	st := tools.AnalyzeStatic(ast)
	feats := features.Extract(prog, cus, res, loopID)

	fmt.Printf("loop %d in %s (line %d)\n", loopID, meta.Func, meta.Line)
	fmt.Printf("  oracle: parallelizable=%v reduction=%v\n", v.Parallelizable, v.HasReduction)
	for _, r := range v.Reasons {
		fmt.Printf("    evidence: %s\n", r)
	}
	fmt.Printf("  tools:  pluto=%s autopar=%s discopop=%s\n",
		yn(st.Pluto[loopID]), yn(st.AutoPar[loopID]), yn(tools.DiscoPoPRule(v)))
	fmt.Println("  Table-I features:")
	vec := feats.Vector()
	for i, name := range features.Names {
		fmt.Printf("    %-13s %.1f\n", name, vec[i])
	}
	fmt.Printf("  sub-PEG: %d nodes, %d edges\n", sub.G.NumNodes(), sub.G.NumEdges())

	// Structural signature: top anonymous walk types.
	space := walks.NewSpace(5)
	rng := rand.New(rand.NewSource(1))
	dist := space.NodeDistributions(sub.G, walks.Params{Length: 5, Gamma: 128}, rng)
	sig := space.GraphDistribution(dist)
	type scored struct {
		idx int
		p   float64
	}
	var top []scored
	for i, p := range sig.Data {
		top = append(top, scored{i, p})
	}
	sort.Slice(top, func(a, b int) bool { return top[a].p > top[b].p })
	fmt.Println("  dominant anonymous walk types:")
	for _, s := range top[:5] {
		fmt.Printf("    %v  %.3f\n", space.Type(s.idx), s.p)
	}
	return nil
}
