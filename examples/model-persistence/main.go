// Model persistence: train the multi-view model once, save its
// parameters to disk, load them into a fresh pipeline and verify the
// reloaded model reproduces the same predictions — the workflow of
// shipping a trained classifier with an application.
//
// Run with: go run ./examples/model-persistence
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mvpar/internal/bench"
	"mvpar/internal/core"
	"mvpar/internal/dataset"
	"mvpar/internal/gnn"
	"mvpar/internal/inst2vec"
	"mvpar/internal/walks"
)

const probe = `
float src[16];
float dst[16];
float total;
void main() {
    for (int i = 0; i < 16; i++) { dst[i] = src[i] * 2.0; }
    for (int i = 0; i < 16; i++) { total += dst[i]; }
    for (int i = 1; i < 16; i++) { dst[i] = dst[i - 1] + 1.0; }
}
`

func quickOptions() core.Options {
	return core.Options{
		Data: dataset.Config{
			Variants:   2,
			WalkParams: walks.Params{Length: 4, Gamma: 12},
			WalkLen:    4,
			EmbedCfg:   inst2vec.DefaultConfig,
			Seed:       1,
		},
		Train: gnn.TrainConfig{Epochs: 8, LR: 0.003, Temperature: 0.5, ClipNorm: 5, BatchSize: 8, Seed: 1},
		Seed:  1,
	}
}

// classify predicts the probe's loops with a handle on pl's current
// model; a handle taken before LoadModel keeps serving the old weights.
func classify(pl *core.Pipeline) ([]core.LoopPrediction, error) {
	cls, err := pl.Classifier()
	if err != nil {
		return nil, err
	}
	return cls.ClassifyContext(context.Background(), "probe", probe)
}

func main() {
	// Train on a slice of the corpus (quick configuration).
	apps := bench.Corpus()
	trainApps := []bench.App{apps[3], apps[4], apps[5], apps[9]} // IS, EP, CG, jacobi-2d
	pl := core.NewPipeline(quickOptions())
	report, err := pl.TrainOnContext(context.Background(), trainApps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: %.1f%% train / %.1f%% held-out accuracy\n",
		100*report.TrainAcc, 100*report.TestAcc)

	// Save the parameters.
	dir, err := os.MkdirTemp("", "mvpar-model")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "mvgnn.gob")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := pl.SaveModel(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	info, _ := os.Stat(path)
	fmt.Printf("saved model to %s (%d bytes)\n", path, info.Size())

	before, err := classify(pl)
	if err != nil {
		log.Fatal(err)
	}

	// A "deployment" pipeline: same encoder settings and dataset (the
	// embedding ships with the dataset build), parameters loaded from disk.
	if err := func() error {
		r, err := os.Open(path)
		if err != nil {
			return err
		}
		defer r.Close()
		// Zero the live model first to prove the load restores it.
		for _, p := range pl.Model.Params() {
			for i := range p.Value.Data {
				p.Value.Data[i] = 0
			}
		}
		return pl.LoadModel(r)
	}(); err != nil {
		log.Fatal(err)
	}

	after, err := classify(pl)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nloop  before-P(par)  after-P(par)  identical")
	for i := range before {
		fmt.Printf("%-5d %-14.4f %-13.4f %v\n",
			before[i].LoopID, before[i].Proba, after[i].Proba,
			before[i].Proba == after[i].Proba)
		if before[i].Proba != after[i].Proba {
			log.Fatal("reloaded model diverged from the saved one")
		}
	}
	fmt.Println("\nreloaded model reproduces the saved model bit-for-bit")
}
