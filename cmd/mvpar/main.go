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
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"syscall"
	"time"

	"mvpar/internal/bench"
	"mvpar/internal/core"
	"mvpar/internal/cu"
	"mvpar/internal/dataset"
	"mvpar/internal/deps"
	"mvpar/internal/features"
	"mvpar/internal/gnn"
	"mvpar/internal/inst2vec"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
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
  serve    [-model FILE] [-addr :8080]
                               long-lived HTTP inference service with bounded
                               admission, degraded-mode fallback and atomic
                               model hot swap (POST /v1/classify, POST
                               /v1/models/reload or SIGHUP, /healthz,
                               /readyz, /metrics, /debug/traces;
                               -trace-slow for telemetry, the global -pprof
                               for profiles);
                               see mvpar serve -h, docs/serving.md,
                               docs/performance.md and docs/observability.md
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
	maxQueue := fs.Int("max-queue", 64, "how many requests may wait for a worker slot; requests past it are shed with 429")
	workers := fs.Int("workers", 0, "worker slots: classifications that run at once (0 = the --jobs / NumCPU default)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request classification deadline")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "graceful shutdown bound")
	drainGrace := fs.Duration("drain-grace", 0, "keep serving this long after SIGTERM while /readyz reports\n503 draining, so load balancers stop routing before the listener\ncloses (e.g. 2s)")
	traceSlow := fs.Duration("trace-slow", 0, "trace every request and retain those slower than this\nthreshold at /debug/traces (e.g. 250ms; 0 disables capture)")
	traceRing := fs.Int("trace-ring", 64, "how many slow-request traces /debug/traces retains (-1 disables retention)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
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
	cls, err := pl.Classifier()
	if err != nil {
		return err
	}
	// Hot reload re-reads the checkpoint file; without -model there is no
	// checkpoint to re-read, so /v1/models/reload answers 501.
	var loader serve.Loader
	if *modelPath != "" {
		path := *modelPath
		loader = func(context.Context) (serve.Inference, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			if err := pl.LoadModel(f); err != nil {
				return nil, err
			}
			return pl.Classifier()
		}
	}
	srv := serve.New(cls, serve.Config{
		Addr:           *addr,
		MaxQueue:       *maxQueue,
		Workers:        *workers,
		RequestTimeout: *reqTimeout,
		DrainTimeout:   *drainTimeout,
		DrainGrace:     *drainGrace,
		Loader:         loader,
		Version:        buildVersion,
		TraceSlow:      *traceSlow,
		TraceRing:      *traceRing,
	})
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

// buildVersion labels mvpar_build_info; override at link time with
// -ldflags "-X main.buildVersion=v1.2.3".
var buildVersion = "dev"

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
