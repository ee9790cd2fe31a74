package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"mvpar/internal/bench"
	"mvpar/internal/dataset"
	"mvpar/internal/faults"
	"mvpar/internal/gnn"
	"mvpar/internal/nn"
	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
)

// Classifier is a reusable inference handle over a trained pipeline. It
// pins the encoder state a classification needs — the inst2vec embedding,
// the anonymous-walk space and the encode configuration — together with
// the trained model, so repeated classifications rebuild no vocabulary or
// walk space per invocation (the per-call cost is profiling and encoding
// the submitted program only).
//
// Unlike Pipeline, a Classifier is safe for concurrent use: every
// prediction borrows a worker-private replica of the float64 engine
// (shared weights, private scratch — see gnn.Predictor.Replicate) from an
// internal free list, so the inference server's handlers can classify
// concurrently, each on its own worker slot, and still produce results
// bit-identical to serial Pipeline.ClassifySource.
type Classifier struct {
	cfg   dataset.Config // frozen single-program encode config
	model *gnn.MVGNN     // the float64 weights the handle was built from
	proto gnn.Predictor  // the model's engine; predictions run on its replicas

	mu       sync.Mutex
	replicas []gnn.Predictor // free list of idle replicas
}

// PrecisionFloat64 names the one inference engine: the float64 forward
// pass that is bit-identical to training and to serial
// Pipeline.ClassifySource. The server reports it on every answer.
const PrecisionFloat64 = "float64"

// Classifier returns an inference handle bound to the pipeline's current
// model and encoder state. The pipeline must have been trained (or
// prepared and loaded) first. Handles are snapshots: LoadModel adopts a
// fresh model and leaves this handle on the old one, so after retraining
// or LoadModel take a new handle to serve the new weights.
func (p *Pipeline) Classifier() (*Classifier, error) {
	if p.Model == nil || p.Dataset == nil {
		return nil, fmt.Errorf("core: pipeline is untrained")
	}
	// Encode with the pipeline's settings, reusing the trained inst2vec
	// space and walk space so the features live in the model's input
	// geometry and no encoder state is rebuilt per call.
	cfg := p.Opts.Data
	cfg.Variants = 1
	cfg.Embedding = p.Dataset.Embedding
	cfg.Space = p.Dataset.Space
	cfg.Ctx = nil
	return &Classifier{cfg: cfg, model: p.Model, proto: p.Model.Predictor()}, nil
}

// acquire pops an idle engine replica, creating one when the list is
// empty.
func (c *Classifier) acquire() gnn.Predictor {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.replicas); n > 0 {
		r := c.replicas[n-1]
		c.replicas = c.replicas[:n-1]
		return r
	}
	return c.proto.Replicate()
}

// release returns a replica to the free list.
func (c *Classifier) release(r gnn.Predictor) {
	c.mu.Lock()
	c.replicas = append(c.replicas, r)
	c.mu.Unlock()
}

// predictRecord answers one encoded loop from the trained head on a
// borrowed engine replica.
func (c *Classifier) predictRecord(ctx context.Context, rec *dataset.Record) (int, float64) {
	r := c.acquire()
	defer c.release(r)
	return r.Predict(ctx, rec.Sample, gnn.ViewTrained)
}

// ClassifyContext profiles a MiniC program (entry function main) and
// classifies every loop with the trained model. ctx flows into the
// interpreter's stride check during profiling, so a request deadline
// aborts a runaway program within milliseconds. Every loop is answered
// from both views. A failing stage returns a *faults.StageError naming
// it: parse, lower, profile or encode from dataset.Build, forward for a
// panic in the model.
func (c *Classifier) ClassifyContext(ctx context.Context, name, src string) ([]LoopPrediction, error) {
	// When ctx carries a trace (the serving path started one), the stages
	// below append spans to it; on an untraced context they only feed
	// their stage histograms, allocation-free.
	ctx, cspan := trace.StartSpan(ctx, "classify")
	defer cspan.End()
	cspan.SetAttr("program", name)
	app := bench.App{Name: name, Suite: "user", Source: src}
	cfg := c.cfg
	cfg.Ctx = ctx
	d, _, err := dataset.Build([]bench.App{app}, cfg)
	if err != nil {
		return nil, err
	}
	var preds []LoopPrediction
	err = faults.Stage(name, faults.StageForward, func() error {
		for _, rec := range d.Records {
			preds = append(preds, c.predictLoop(ctx, name, rec))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return preds, nil
}

// Fingerprint identifies this handle's model weights, trained head and
// encode configuration: two classifiers with equal fingerprints answer
// identically on every input. The serving layer reports it as each
// generation's identity (/healthz, reload results, mvpar_build_info), so
// an operator can tell which weights answer after a hot swap. The engine
// name and the walk parameters' printed form from before the walk budget
// was deleted stay in the hash, so a checkpoint's fingerprint does not
// move.
func (c *Classifier) Fingerprint() string {
	h := sha256.New()
	io.WriteString(h, nn.FingerprintParams(c.model.Params()))
	cfg := c.cfg
	fmt.Fprintf(h, "|v%d|w{Length:%d Gamma:%d MaxSamples:0}|l%d|e%+v|s%d|t%d|n%d|p%s|h%s",
		cfg.Variants, cfg.WalkParams.Length, cfg.WalkParams.Gamma, cfg.WalkLen, cfg.EmbedCfg, cfg.Seed, cfg.MaxSteps, cfg.MaxTokens,
		PrecisionFloat64, c.model.Head())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// predictLoop answers one encoded loop and annotates the prediction with
// its oracle label and its source location.
func (c *Classifier) predictLoop(ctx context.Context, name string, rec *dataset.Record) LoopPrediction {
	pred, proba := c.predictRecord(ctx, rec)
	lp := LoopPrediction{
		LoopID:   rec.Meta.LoopID,
		Parallel: pred == 1,
		Proba:    proba,
		Oracle:   rec.Verdict.Parallelizable,
		Reasons:  rec.Verdict.Reasons,
	}
	// A record without source provenance (no lowered loop metadata
	// for its loop ID) must not fabricate an empty location, so
	// annotate the prediction and warn instead.
	if rec.Meta.Func != "" {
		lp.Func = rec.Meta.Func
		lp.Line = rec.Meta.Line
	} else {
		lp.Func = "(unknown)"
		lp.Reasons = append(lp.Reasons, fmt.Sprintf("no source loop info for loop %d", rec.Meta.LoopID))
		obs.Warn("classify.missing_loop_info", "program", name, "loop", rec.Meta.LoopID)
	}
	return lp
}
