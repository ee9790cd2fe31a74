// Quickstart: profile a small sequential program, inspect the dependence
// oracle's per-loop verdicts, then train the multi-view model on the
// built-in corpus and classify the same loops with it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"mvpar/internal/bench"
	"mvpar/internal/core"
	"mvpar/internal/dataset"
	"mvpar/internal/gnn"
	"mvpar/internal/inst2vec"
	"mvpar/internal/walks"
)

const program = `
float data[32];
float smooth[32];
float total;

void main() {
    // A DoALL initialization sweep.
    for (int i = 0; i < 32; i++) {
        data[i] = i * 0.5;
    }
    // An out-of-place three-point stencil: parallelizable.
    for (int i = 1; i < 31; i++) {
        smooth[i] = (data[i - 1] + data[i] + data[i + 1]) * 0.333;
    }
    // A sum reduction: parallelizable with a reduction clause.
    for (int i = 0; i < 32; i++) {
        total += smooth[i];
    }
    // A first-order recurrence: inherently sequential.
    for (int i = 1; i < 32; i++) {
        data[i] = data[i - 1] * 0.9 + 1.0;
    }
}
`

func main() {
	ctx := context.Background()

	// Step 1: the profiling substrate alone — parse, lower, execute with
	// instrumentation, and print the dynamic dependence oracle's verdicts.
	_, prog, res, err := core.ProfileSourceContext(ctx, "quickstart", program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== dynamic dependence oracle ==")
	for _, id := range prog.LoopIDs() {
		v := res.Verdicts[id]
		meta := prog.Loops[id]
		fmt.Printf("loop %d (line %d): parallelizable=%v reduction=%v\n",
			id, meta.Line, v.Parallelizable, v.HasReduction)
		for _, r := range v.Reasons {
			fmt.Println("    blocked by:", r)
		}
	}

	// Step 2: train the MV-GNN on the built-in benchmark corpus (a quick
	// configuration; `mvpar experiments` runs the paper-scale ones).
	fmt.Println("\n== training MV-GNN on the built-in corpus (quick config) ==")
	opts := core.Options{
		Data: dataset.Config{
			Variants:   2,
			WalkParams: walks.Params{Length: 4, Gamma: 12},
			WalkLen:    4,
			EmbedCfg:   inst2vec.DefaultConfig,
			Seed:       1,
		},
		Train: gnn.TrainConfig{Epochs: 10, LR: 0.003, Temperature: 0.5, ClipNorm: 5, BatchSize: 8, Seed: 1},
		Seed:  1,
	}
	pl := core.NewPipeline(opts)
	report, err := pl.TrainOnContext(ctx, bench.Corpus())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("train accuracy %.1f%%, held-out accuracy %.1f%%\n",
		100*report.TrainAcc, 100*report.TestAcc)

	// Step 3: classify the quickstart program's loops with the model.
	fmt.Println("\n== model predictions ==")
	cls, err := pl.Classifier()
	if err != nil {
		log.Fatal(err)
	}
	preds, err := cls.ClassifyContext(ctx, "quickstart", program)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range preds {
		agree := "agrees with oracle"
		if p.Parallel != p.Oracle {
			agree = "DISAGREES with oracle"
		}
		fmt.Printf("loop %d (line %d): predicted parallel=%v (P=%.2f) — %s\n",
			p.LoopID, p.Line, p.Parallel, p.Proba, agree)
	}
}
