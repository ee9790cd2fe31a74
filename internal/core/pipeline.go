// Package core is the public face of the library: it wires profiling,
// graph construction, the two views and the MV-GNN into a single Pipeline
// a downstream user drives, and hosts the experiment harness that
// regenerates every table and figure of the paper.
//
// Typical use:
//
//	pl, err := core.NewPipeline(core.DefaultOptions())
//	report, err := pl.TrainOn(bench.Corpus())
//	preds, err := pl.ClassifySource("mine", src) // per-loop predictions
package core

import (
	"context"
	"fmt"
	"io"

	"mvpar/internal/bench"
	"mvpar/internal/dataset"
	"mvpar/internal/deps"
	"mvpar/internal/gnn"
	"mvpar/internal/interp"
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

	// cls is the classifier handle ClassifySource reuses across calls; it
	// is refreshed whenever the model or encoder state changes.
	cls *Classifier
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

// TrainOn builds the dataset from apps, balances it, splits 75:25 and
// trains the MV-GNN. The pipeline keeps the dataset (for its embedding
// and walk space) and the trained model.
func (p *Pipeline) TrainOn(apps []bench.App) (*TrainReport, error) {
	return p.TrainOnContext(context.Background(), apps)
}

// TrainOnContext is TrainOn with cancellation: ctx flows into the
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
	// Split first so every suite keeps test representation, then balance
	// only the training side (the paper's balanced 3100+3100 training set).
	train, test := dataset.Split(d.Records, 0.75, p.Opts.Seed)
	train = dataset.Balance(train, 0, p.Opts.Seed)
	p.Model = gnn.NewMVGNN(d.NodeDim, d.StructDim, p.Opts.Seed)
	trainCfg := p.Opts.Train
	if trainCfg.Ctx == nil {
		trainCfg.Ctx = ctx
	}
	curve := p.Model.Train(dataset.Samples(train), trainCfg, EpochHook("pipeline"))
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: training cancelled: %w", err)
	}
	// Report accuracies fan out over model replicas; identical to the
	// serial Evaluate at every worker count.
	newPredict := func() func(gnn.Sample) int { return p.Model.Predictor().Replicate().Labeler(gnn.ViewTrained) }
	report := &TrainReport{
		TrainRecords: len(train),
		TestRecords:  len(test),
		TrainAcc:     gnn.EvaluateParallel(newPredict, dataset.Samples(train), trainCfg.Parallelism),
		TestAcc:      gnn.EvaluateParallel(newPredict, dataset.Samples(test), trainCfg.Parallelism),
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

// ClassifySource profiles a MiniC program (entry function main) and
// classifies every loop with the trained model. The pipeline must have
// been trained first so the embedding and walk space exist.
func (p *Pipeline) ClassifySource(name, src string) ([]LoopPrediction, error) {
	return p.ClassifySourceContext(context.Background(), name, src)
}

// ClassifySourceContext is ClassifySource with cancellation. It
// delegates to a Classifier handle (cached across calls, refreshed when
// the model or dataset changes), so repeat classifications share encoder
// state instead of rebuilding it. Pipeline methods are not safe for
// concurrent use — callers that fan requests out take a Classifier
// handle directly.
func (p *Pipeline) ClassifySourceContext(ctx context.Context, name, src string) ([]LoopPrediction, error) {
	if p.cls == nil || p.Dataset == nil || p.cls.model != p.Model || p.cls.cfg.Embedding != p.Dataset.Embedding {
		c, err := p.Classifier()
		if err != nil {
			return nil, err
		}
		p.cls = c
	}
	return p.cls.ClassifyContext(ctx, name, src)
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
	p.cls = nil
	return nil
}

// ProfileSource profiles a program and returns its dependence result —
// the library's DiscoPoP-phase-1 entry point for users who want raw
// dependences rather than model predictions.
func ProfileSource(name, src string) (*ir.Program, *deps.Result, error) {
	_, prog, res, err := ProfileSourceContext(context.Background(), name, src)
	return prog, res, err
}

// ProfileSourceContext is ProfileSource with cancellation, which also
// returns the parsed program for the static analyses that read the AST:
// a done ctx aborts the instrumented execution at the interpreter's
// stride check.
func ProfileSourceContext(ctx context.Context, name, src string) (*minic.Program, *ir.Program, *deps.Result, error) {
	ast, err := minic.Parse(name, src)
	if err != nil {
		return nil, nil, nil, err
	}
	prog, err := ir.Lower(ast)
	if err != nil {
		return nil, nil, nil, err
	}
	res, _, err := deps.Analyze(prog, "main", interp.Limits{Ctx: ctx})
	if err != nil {
		return nil, nil, nil, err
	}
	return ast, prog, res, nil
}
