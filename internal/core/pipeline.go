// Package core is the public face of the library: it wires profiling,
// graph construction, the two views and the MV-GNN into a single Pipeline
// a downstream user drives, and hosts the experiment harness that
// regenerates every table and figure of the paper.
//
// Typical use:
//
//	pl := core.NewPipeline(core.DefaultOptions())
//	report, err := pl.TrainOnContext(ctx, bench.Corpus())
//	cls, err := pl.Classifier()
//	preds, err := cls.ClassifyContext(ctx, "mine", src) // per-loop predictions
package core

import (
	"context"
	"fmt"
	"io"

	"mvpar/internal/bench"
	"mvpar/internal/dataset"
	"mvpar/internal/deps"
	"mvpar/internal/gnn"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
)

// Options configures a Pipeline.
type Options struct {
	Data  dataset.Config
	Train gnn.TrainConfig
	Seed  int64
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{
		Data:  dataset.DefaultConfig,
		Train: gnn.DefaultTrainConfig,
		Seed:  1,
	}
}

// Pipeline owns a dataset encoder and a trained multi-view model.
type Pipeline struct {
	Opts    Options
	Dataset *dataset.Dataset
	Model   *gnn.MVGNN
}

// NewPipeline creates an untrained pipeline.
func NewPipeline(opts Options) *Pipeline {
	return &Pipeline{Opts: opts}
}

// TrainReport summarizes a training run.
type TrainReport struct {
	TrainRecords int
	TestRecords  int
	TrainAcc     float64
	TestAcc      float64
	Curve        []gnn.EpochStats
}

// EpochHook returns a gnn training hook that logs every epoch and streams
// its loss/accuracy into the metrics registry; stage labels the training
// run in the log line.
func EpochHook(stage string) func(gnn.EpochStats) {
	return func(e gnn.EpochStats) {
		obs.GetGauge("mvpar_train_loss").Set(e.Loss)
		obs.GetGauge("mvpar_train_acc").Set(e.Acc)
		obs.Info("train.epoch", "stage", stage, "epoch", e.Epoch, "loss", e.Loss, "acc", e.Acc)
	}
}

// TrainOnContext builds the dataset from apps, balances it, splits 75:25
// and trains the MV-GNN. The pipeline keeps the dataset (for its
// embedding and walk space) and the trained model. ctx flows into the
// interpreter's stride check during profiling and the trainer's batch
// boundaries, so a deadline aborts the run within milliseconds of expiry
// instead of after the current program finishes.
func (p *Pipeline) TrainOnContext(ctx context.Context, apps []bench.App) (*TrainReport, error) {
	ctx, span := trace.StartSpan(ctx, "core.train_on")
	defer span.End()
	dataCfg := p.Opts.Data
	if dataCfg.Ctx == nil {
		dataCfg.Ctx = ctx
	}
	d, _, err := dataset.Build(apps, dataCfg)
	if err != nil {
		return nil, err
	}
	p.Dataset = d
	trainCfg := p.Opts.Train
	if trainCfg.Ctx == nil {
		trainCfg.Ctx = ctx
	}
	mv, train, test, curve, err := trainMVGNN(d, 0, p.Opts.Seed, trainCfg, "pipeline")
	if err != nil {
		return nil, err
	}
	p.Model = mv
	// Report accuracies fan out over model replicas; identical to the
	// serial Evaluate at every worker count.
	newPredict := func() func(gnn.Sample) int { return p.Model.Predictor().Replicate().Labeler(gnn.ViewTrained) }
	report := &TrainReport{
		TrainRecords: len(train),
		TestRecords:  len(test),
		TrainAcc:     gnn.EvaluateParallel(newPredict, dataset.Samples(train)),
		TestAcc:      gnn.EvaluateParallel(newPredict, dataset.Samples(test)),
		Curve:        curve,
	}
	obs.Info("core.train_on", "train_records", report.TrainRecords,
		"test_records", report.TestRecords, "train_acc", report.TrainAcc,
		"test_acc", report.TestAcc)
	return report, nil
}

// LoopPrediction is the classification of one loop of a user program.
type LoopPrediction struct {
	LoopID   int
	Func     string
	Line     int
	Parallel bool    // model prediction
	Proba    float64 // P(parallelizable)
	Oracle   bool    // dynamic oracle ground truth
	// Degraded is always false: every loop is answered from both views.
	// It stays only because benchmark/check.go compares it, and goes
	// with the next change to the benchmark.
	Degraded bool
	Reasons  []string
}

// PrepareContext builds the dataset — the encoder state: inst2vec space,
// walk space, input dimensions — without training a model, so LoadModel
// can restore parameters trained by an earlier run (mvpar train -model)
// into the right shape. The build must use the same Options the model was
// trained with.
func (p *Pipeline) PrepareContext(ctx context.Context, apps []bench.App) error {
	cfg := p.Opts.Data
	if cfg.Ctx == nil {
		cfg.Ctx = ctx
	}
	d, _, err := dataset.Build(apps, cfg)
	if err != nil {
		return err
	}
	p.Dataset = d
	return nil
}

// SaveModel writes the trained model parameters.
func (p *Pipeline) SaveModel(w io.Writer) error {
	if p.Model == nil {
		return fmt.Errorf("core: no trained model")
	}
	return p.Model.Save(w)
}

// LoadModel reads a checkpoint into a fresh model shaped for the
// pipeline's dataset and adopts it only once the load fully succeeds;
// on any error the pipeline keeps its previous model. The live model is
// never written to, so a Classifier taken before the load keeps its
// weights, head and fingerprint for as long as it lives: the hot swap
// with drain that the serving layer builds on.
func (p *Pipeline) LoadModel(r io.Reader) error {
	if p.Dataset == nil {
		return fmt.Errorf("core: load requires a built dataset for dimensions")
	}
	m := gnn.NewMVGNN(p.Dataset.NodeDim, p.Dataset.StructDim, p.Opts.Seed)
	if err := m.Load(r); err != nil {
		return err
	}
	p.Model = m
	return nil
}

// ProfileSourceContext profiles a program (entry function main) and
// returns its parsed and lowered forms with its dependence result — the
// library's DiscoPoP-phase-1 entry point for users who want raw
// dependences rather than model predictions, and the parse the static
// analyses read. It is dataset.Profile at the default step budget: a
// failure is a *faults.StageError naming parse, lower or profile, and a
// done ctx aborts the instrumented execution at the interpreter's stride
// check.
func ProfileSourceContext(ctx context.Context, name, src string) (*minic.Program, *ir.Program, *deps.Result, error) {
	return dataset.Profile(ctx, name, src, 0)
}
