package main

import (
	"context"
	"flag"
	"fmt"
	"sort"
	"time"

	"mvpar/internal/core"
	"mvpar/internal/eval"
	"mvpar/internal/features"
)

// cmdExperiments regenerates every table and figure of the paper's
// evaluation section and prints them to stdout. Table III, Table IV,
// Figure 8, the pattern extension and the robustness check share one
// core.Study: the corpus dataset is built once per run, and Tables III
// and IV and Figure 8 report one trained MV-GNN. The global -jobs,
// -timeout, -log-level, -metrics-out and -pprof apply; stdout is the
// same at any -jobs.
//
//	mvpar experiments                  # everything at paper scale
//	mvpar experiments -quick           # everything at quick scale
//	mvpar experiments -table 3         # one table (1, 2, 3, 4)
//	mvpar experiments -figure 8        # one figure (1, 7, 8)
//	mvpar experiments -copies 2 -variants 4 -epochs 30 -noise 0.05
func cmdExperiments(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	quick := fs.Bool("quick", false, "quick scale (minutes -> seconds)")
	table := fs.Int("table", 0, "run only this table (1-4)")
	figure := fs.Int("figure", 0, "run only this figure (1, 7, 8)")
	patterns := fs.Bool("patterns", false, "run only the pattern-classification extension")
	robustness := fs.Bool("robustness", false, "run only the k-fold robustness check")
	copies := fs.Int("copies", -1, "transformed corpus copies (override)")
	variants := fs.Int("variants", -1, "IR variants per program (override)")
	epochs := fs.Int("epochs", -1, "training epochs (override)")
	noise := fs.Float64("noise", -1, "annotation noise rate (override)")
	seed := fs.Int64("seed", 1, "global seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("experiments: unexpected arguments %v", fs.Args())
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
	cfg.Ctx = ctx

	runAll := *table == 0 && *figure == 0 && !*patterns && !*robustness
	start := time.Now()
	// Only Tables III and IV, Figure 8, the patterns and the robustness
	// check read the study, so a run of Table II or Figures 1 and 7
	// alone never builds the corpus dataset.
	var study *core.Study
	if runAll || *table == 3 || *table == 4 || *figure == 8 || *patterns || *robustness {
		var err error
		if study, err = core.NewStudy(cfg); err != nil {
			return err
		}
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
			return err
		}
		fmt.Printf("Figure 1: structural separability of stencil vs reduction\n")
		fmt.Printf("  L1 distance between anonymous-walk signatures: %.3f\n", r.L1Distance)
		fmt.Printf("  dominant stencil walk type:   %s\n", r.StencilTop)
		fmt.Printf("  dominant reduction walk type: %s\n\n", r.ReduceTop)
	}
	if runAll || *table == 3 {
		r, err := core.RunTable3(study)
		if err != nil {
			return err
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
		rows, _, err := core.RunTable4(study)
		if err != nil {
			return err
		}
		fmt.Println(core.RenderTable4(rows))
	}
	if runAll || *figure == 7 {
		r, err := core.RunFigure7(cfg)
		if err != nil {
			return err
		}
		fmt.Println(core.RenderFigure7(r))
	}
	if runAll || *figure == 8 {
		r, err := core.RunFigure8(study)
		if err != nil {
			return err
		}
		fmt.Println(core.RenderFigure8(r))
	}
	if runAll || *patterns {
		r, err := core.RunPatternExperiment(study)
		if err != nil {
			return err
		}
		fmt.Println(core.RenderPatterns(r))
	}
	if *robustness {
		r, err := core.RunRobustness(study, 3)
		if err != nil {
			return err
		}
		fmt.Printf("3-fold cross-validated MV-GNN accuracy: %.1f%% ± %.1f%%  (folds:", 100*r.Mean, 100*r.Std)
		for _, f := range r.Folds {
			fmt.Printf(" %.1f", 100*f)
		}
		fmt.Println(")")
	}
	fmt.Printf("total elapsed: %s\n", time.Since(start).Round(time.Second))
	return nil
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
