package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"sync"

	"mvpar/internal/bench"
	"mvpar/internal/dataset"
	"mvpar/internal/gnn"
	"mvpar/internal/nn"
	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
)

// Classifier is a reusable inference handle over a trained pipeline. It
// pins the encoder state a classification needs — the inst2vec embedding,
// the anonymous-walk space and the encode configuration — together with
// the trained model, so repeated Classify calls rebuild no vocabulary or
// walk space per invocation (the per-call cost is profiling and encoding
// the submitted program only).
//
// Unlike Pipeline, a Classifier is safe for concurrent use: every
// prediction borrows a worker-private replica of the handle's tier engine
// (shared weights, private scratch — see gnn.Predictor.Replicate) from an
// internal free list, so the inference server's handlers can classify
// concurrently, each on its own worker slot, and still produce results
// bit-identical to serial Pipeline.ClassifySource.
type Classifier struct {
	cfg   dataset.Config // frozen single-program encode config
	model *gnn.MVGNN     // the float64 weights the handle was built from

	// precision names the tier: PrecisionFloat64 (the bit-identity
	// reference) or PrecisionInt8 (the integer tier, licensed at a
	// documented non-zero drift budget by `mvpar parity`). proto is that
	// tier's engine; predictions run on its replicas.
	precision string
	proto     gnn.Predictor

	mu       sync.Mutex
	replicas []gnn.Predictor // free list of idle replicas
}

// Precision tiers of the inference engine.
const (
	// PrecisionFloat64 is the default: the float64 forward pass that is
	// bit-identical to training and to serial Pipeline.ClassifySource.
	PrecisionFloat64 = "float64"
	// PrecisionInt8 is the integer tier: per-channel int8 weights, int32
	// accumulators, dequantize-then-table-tanh epilogues. Licensed at a
	// documented non-zero drift budget (`mvpar parity`).
	PrecisionInt8 = "int8"
)

// precisionTiers enumerates the valid tiers, reference first — the order
// ParsePrecision's error message reports them in.
var precisionTiers = []string{PrecisionFloat64, PrecisionInt8}

// ParsePrecision validates a -precision flag value; empty means float64.
// Input is normalized (surrounding whitespace trimmed, case folded) so
// flag values like " Float64" or "INT8" resolve; an unknown tier errors
// with the full list of valid ones.
func ParsePrecision(s string) (string, error) {
	norm := strings.ToLower(strings.TrimSpace(s))
	if norm == "" {
		return PrecisionFloat64, nil
	}
	for _, tier := range precisionTiers {
		if norm == tier {
			return tier, nil
		}
	}
	return "", fmt.Errorf("core: unknown precision %q (valid tiers: %s)", s, strings.Join(precisionTiers, ", "))
}

// Classifier returns an inference handle bound to the pipeline's current
// model and encoder state. The pipeline must have been trained (or
// prepared and loaded) first. Handles are snapshots: after retraining or
// LoadModel (which replaces the weight storage replicas are bound to),
// take a new handle.
func (p *Pipeline) Classifier() (*Classifier, error) {
	return p.ClassifierPrecision(PrecisionFloat64)
}

// ClassifierPrecision is Classifier with an explicit precision tier, and
// the one place a tier name picks an inference engine. For
// PrecisionInt8 the model's current weights are quantized here, once per
// handle (replicas share the quantized weights).
func (p *Pipeline) ClassifierPrecision(precision string) (*Classifier, error) {
	prec, err := ParsePrecision(precision)
	if err != nil {
		return nil, err
	}
	if p.Model == nil || p.Dataset == nil {
		return nil, fmt.Errorf("core: pipeline is untrained")
	}
	proto := p.Model.Predictor()
	if prec == PrecisionInt8 {
		proto = p.Model.QuantizeI8().Predictor()
	}
	// Encode with the pipeline's settings, reusing the trained inst2vec
	// space and walk space so the features live in the model's input
	// geometry and no encoder state is rebuilt per call. Always strict:
	// errors in the user's one program must surface, not quarantine into
	// an empty prediction list.
	cfg := p.Opts.Data
	cfg.Variants = 1
	cfg.Embedding = p.Dataset.Embedding
	cfg.Space = p.Dataset.Space
	cfg.Strict = true
	cfg.Ctx = nil
	return &Classifier{cfg: cfg, model: p.Model, precision: prec, proto: proto}, nil
}

// Precision reports the handle's inference tier ("float64" or "int8").
func (c *Classifier) Precision() string {
	if c.precision == "" {
		return PrecisionFloat64
	}
	return c.precision
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

// PredictRecord answers one encoded loop on a borrowed replica of the
// handle's tier. A degraded record — its structural view could not be
// sampled — is answered by the node view's head alone, the paper's
// Static-GNN geometry; every other record by the trained head. Classify
// and `mvpar parity` both predict through this one rule.
func (c *Classifier) PredictRecord(ctx context.Context, rec *dataset.Record) (int, float64) {
	r := c.acquire()
	defer c.release(r)
	view := gnn.ViewTrained
	if len(rec.Degraded) > 0 {
		view = gnn.ViewNode
	}
	return r.Predict(ctx, rec.Sample, view)
}

// Classify profiles a MiniC program (entry function main) and classifies
// every loop with the trained model.
func (c *Classifier) Classify(name, src string) ([]LoopPrediction, error) {
	return c.ClassifyContext(context.Background(), name, src)
}

// ClassifyContext is Classify with cancellation: ctx flows into the
// interpreter's stride check during profiling, so a request deadline
// aborts a runaway program within milliseconds. Loops whose structural
// view could not be sampled (walk budget exceeded) are not dropped: they
// get a node-view-only prediction — the paper's Static-GNN geometry —
// with Degraded set, the causes recorded in Reasons, and the event
// counted by mvpar_degraded_predictions_total.
func (c *Classifier) ClassifyContext(ctx context.Context, name, src string) ([]LoopPrediction, error) {
	return c.classifyWith(ctx, c.cfg, name, src)
}

// ClassifyDegradedContext is the serving layer's degradation-ladder
// rung: it classifies every loop from the node view only, skipping
// structural-view walk sampling entirely. A one-sample walk budget
// forces every loop's structural view over budget, so dataset.Build
// keeps the loops with the all-zero structural fallback and
// Record.Degraded set — the paper's Static-GNN geometry — and the
// shared classify path marks each prediction Degraded with the cause.
// It is substantially cheaper than a full classification (no sampling,
// no structural forward work of consequence), which is what makes it a
// usable fallback when the full classification faults.
func (c *Classifier) ClassifyDegradedContext(ctx context.Context, name, src string) ([]LoopPrediction, error) {
	cfg := c.cfg
	cfg.WalkParams.MaxSamples = 1
	obs.GetCounter("mvpar_degraded_mode_classifications_total").Inc()
	return c.classifyWith(ctx, cfg, name, src)
}

// Fingerprint identifies this handle's model weights, trained head and
// encode configuration: two classifiers with equal fingerprints answer
// identically on every input. The serving layer reports it as each
// generation's identity (/healthz, reload results, mvpar_model_info), so
// an operator can tell which weights answer after a hot swap.
func (c *Classifier) Fingerprint() string {
	h := sha256.New()
	io.WriteString(h, nn.FingerprintParams(c.model.Params()))
	cfg := c.cfg
	fmt.Fprintf(h, "|v%d|w%+v|l%d|e%+v|s%d|t%d|n%d|p%s|h%s",
		cfg.Variants, cfg.WalkParams, cfg.WalkLen, cfg.EmbedCfg, cfg.Seed, cfg.MaxSteps, cfg.MaxTokens,
		c.Precision(), c.model.Head())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// classifyWith is the shared classify body: profile and encode the
// program under cfg, then predict every loop through PredictRecord.
func (c *Classifier) classifyWith(ctx context.Context, cfg dataset.Config, name, src string) ([]LoopPrediction, error) {
	// When ctx carries a trace (the serving path started one), the stages
	// below append spans to it; on an untraced context they only feed
	// their stage histograms, allocation-free.
	ctx, cspan := trace.StartSpan(ctx, "classify")
	defer cspan.End()
	cspan.SetAttr("program", name)
	app := bench.App{Name: name, Suite: "user", Source: src}
	cfg.Ctx = ctx
	d, _, err := dataset.Build([]bench.App{app}, cfg)
	if err != nil {
		return nil, err
	}
	var preds []LoopPrediction
	for _, rec := range d.Records {
		pred, proba := c.PredictRecord(ctx, rec)
		lp := LoopPrediction{
			LoopID:   rec.Meta.LoopID,
			Parallel: pred == 1,
			Proba:    proba,
			Oracle:   rec.Verdict.Parallelizable,
			Reasons:  rec.Verdict.Reasons,
		}
		if len(rec.Degraded) > 0 {
			obs.GetCounter("mvpar_degraded_predictions_total").Inc()
			obs.Warn("classify.degraded", "program", name, "loop", rec.Meta.LoopID,
				"reasons", fmt.Sprint(rec.Degraded))
			lp.Degraded = true
			lp.Reasons = append(append([]string(nil), lp.Reasons...), rec.Degraded...)
			lp.Reasons = append(lp.Reasons, "prediction from node view only")
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
		preds = append(preds, lp)
	}
	return preds, nil
}
