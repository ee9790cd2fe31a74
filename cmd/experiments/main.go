// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints them to stdout. Table III, Table IV,
// Figure 8, the pattern extension and the robustness check share one
// core.Study: the corpus dataset is built once per run, and Tables III
// and IV and Figure 8 report one trained MV-GNN.
//
// Usage:
//
//	experiments                  # run everything at paper scale
//	experiments -quick           # run everything at quick scale
//	experiments -table 3         # run a single table (1, 2, 3, 4)
//	experiments -figure 8        # run a single figure (1, 7, 8)
//	experiments -copies 2 -variants 4 -epochs 30 -noise 0.05
//	experiments -quick -jobs 1   # one worker; stdout is the same at any -jobs
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sort"
	"time"

	"mvpar/internal/core"
	"mvpar/internal/eval"
	"mvpar/internal/features"
	"mvpar/internal/obs"
	"mvpar/internal/pool"
)

func main() {
	quick := flag.Bool("quick", false, "quick scale (minutes -> seconds)")
	table := flag.Int("table", 0, "run only this table (1-4)")
	figure := flag.Int("figure", 0, "run only this figure (1, 7, 8)")
	patterns := flag.Bool("patterns", false, "run only the pattern-classification extension")
	robustness := flag.Bool("robustness", false, "run only the k-fold robustness check")
	copies := flag.Int("copies", -1, "transformed corpus copies (override)")
	variants := flag.Int("variants", -1, "IR variants per program (override)")
	epochs := flag.Int("epochs", -1, "training epochs (override)")
	noise := flag.Float64("noise", -1, "annotation noise rate (override)")
	seed := flag.Int64("seed", 1, "global seed")
	jobs := flag.Int("jobs", 0, "worker count of every parallel stage: dataset build, training and evaluation (0 = NumCPU, 1 = serial; output is identical at any count)")
	logLevel := flag.String("log-level", "", "structured log level: debug|info|warn|error (default silent; also $MVPAR_LOG)")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry to this file on exit (Prometheus text format)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (e.g. 10m; 0 = no limit)")
	flag.Parse()

	if *logLevel != "" {
		lvl, err := obs.ParseLevel(*logLevel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		obs.SetLevel(lvl)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: pprof:", err)
			}
		}()
	}

	cfg := core.PaperScale()
	if *quick {
		cfg = core.QuickScale()
	}
	if *copies >= 0 {
		cfg.TransformedCopies = *copies
	}
	if *variants > 0 {
		cfg.Variants = *variants
	}
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}
	if *noise >= 0 {
		cfg.LabelNoise = *noise
	}
	cfg.Seed = *seed
	pool.SetDefaultParallelism(*jobs)
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		cfg.Ctx = ctx
	}

	runAll := *table == 0 && *figure == 0 && !*patterns && !*robustness
	start := time.Now()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	// The study is built on first use, so a run of only Table II or
	// Figures 1 and 7 never builds the corpus dataset.
	var study *core.Study
	getStudy := func() *core.Study {
		if study == nil {
			var err error
			if study, err = core.NewStudy(cfg); err != nil {
				fail(err)
			}
		}
		return study
	}

	if runAll || *table == 1 {
		printTable1()
	}
	if runAll || *table == 2 {
		rows, total := core.RunTable2()
		fmt.Println(core.RenderTable2(rows, total))
	}
	if runAll || *figure == 1 {
		r, err := core.RunFigure1()
		if err != nil {
			fail(err)
		}
		fmt.Printf("Figure 1: structural separability of stencil vs reduction\n")
		fmt.Printf("  L1 distance between anonymous-walk signatures: %.3f\n", r.L1Distance)
		fmt.Printf("  dominant stencil walk type:   %s\n", r.StencilTop)
		fmt.Printf("  dominant reduction walk type: %s\n\n", r.ReduceTop)
	}
	if runAll || *table == 3 {
		r, err := core.RunTable3(getStudy())
		if err != nil {
			fail(err)
		}
		fmt.Println(core.RenderTable3(r))
		fmt.Println("Held-out aggregate accuracy (25% unseen loop objects):")
		var models []string
		for m := range r.HeldOutAcc {
			models = append(models, m)
		}
		sort.Strings(models)
		for _, m := range models {
			fmt.Printf("  %-14s %s\n", m, eval.Pct(r.HeldOutAcc[m]))
		}
		fmt.Println()
	}
	if runAll || *table == 4 {
		rows, _, err := core.RunTable4(getStudy())
		if err != nil {
			fail(err)
		}
		fmt.Println(core.RenderTable4(rows))
	}
	if runAll || *figure == 7 {
		r, err := core.RunFigure7(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Println(core.RenderFigure7(r))
	}
	if runAll || *figure == 8 {
		r, err := core.RunFigure8(getStudy())
		if err != nil {
			fail(err)
		}
		fmt.Println(core.RenderFigure8(r))
	}
	if runAll || *patterns {
		r, err := core.RunPatternExperiment(getStudy())
		if err != nil {
			fail(err)
		}
		fmt.Println(core.RenderPatterns(r))
	}
	if *robustness {
		r, err := core.RunRobustness(getStudy(), 3)
		if err != nil {
			fail(err)
		}
		fmt.Printf("3-fold cross-validated MV-GNN accuracy: %.1f%% ± %.1f%%  (folds:", 100*r.Mean, 100*r.Std)
		for _, f := range r.Folds {
			fmt.Printf(" %.1f", 100*f)
		}
		fmt.Println(")")
	}
	if *metricsOut != "" {
		if err := dumpMetrics(*metricsOut); err != nil {
			fail(err)
		}
		fmt.Println("metrics written to", *metricsOut)
	}
	fmt.Printf("total elapsed: %s\n", time.Since(start).Round(time.Second))
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

// printTable1 reproduces Table I: the dynamic feature definitions, with
// the extraction implemented in internal/features.
func printTable1() {
	t := eval.Table{
		Title:   "Table I: dynamic features used for loop parallelization classification",
		Headers: []string{"feature name", "description"},
	}
	desc := map[string]string{
		"N_Inst":       "Number of instructions within the loop",
		"exec_times":   "Total number of times the loop is executed",
		"CFL":          "Critical path length",
		"ESP":          "Estimated speedup",
		"incoming_dep": "Incoming dependency count",
		"internal_dep": "Dependency count between loop instructions",
		"outgoing_dep": "Outgoing dependency count",
	}
	for _, name := range features.Names {
		t.AddRow(name, desc[name])
	}
	fmt.Println(t.String())
}
