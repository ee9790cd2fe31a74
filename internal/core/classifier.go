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
	"mvpar/internal/minic"
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
// internal free list, so the inference server can fan a batch of requests
// out across workers and still produce results bit-identical to serial
// Pipeline.ClassifySource.
type Classifier struct {
	cfg   dataset.Config // frozen single-program encode config
	model *gnn.MVGNN     // the float64 weights the handle was built from

	// precision names the tier: PrecisionFloat64 (the bit-identity
	// reference), PrecisionFloat32 (the quantized fast path, parity-gated
	// by `mvpar parity` rather than bit-identical) or PrecisionInt8 (the
	// integer tier, licensed at a documented non-zero drift budget by
	// `mvpar parity -precision int8`). proto is that tier's engine;
	// predictions run on its replicas.
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
	// PrecisionFloat32 is the quantized fast path: float32 cache-blocked
	// kernels with fused activations. Labels and probabilities track the
	// float64 reference within the accuracy-parity gate's tolerance.
	PrecisionFloat32 = "float32"
	// PrecisionInt8 is the integer tier: per-channel int8 weights, int32
	// accumulators, dequantize-then-table-tanh epilogues. Licensed at a
	// documented non-zero drift budget (`mvpar parity -precision int8`).
	PrecisionInt8 = "int8"
)

// precisionTiers enumerates the valid tiers, reference first — the order
// ParsePrecision's error message reports them in.
var precisionTiers = []string{PrecisionFloat64, PrecisionFloat32, PrecisionInt8}

// ParsePrecision validates a -precision flag value; empty means float64.
// Input is normalized (surrounding whitespace trimmed, case folded) so
// flag values like " Float32" or "INT8" resolve; an unknown tier errors
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
// PrecisionFloat32 and PrecisionInt8 the model's current weights are
// quantized here, once per handle (replicas share the quantized
// weights).
func (p *Pipeline) ClassifierPrecision(precision string) (*Classifier, error) {
	prec, err := ParsePrecision(precision)
	if err != nil {
		return nil, err
	}
	if p.Model == nil || p.Dataset == nil {
		return nil, fmt.Errorf("core: pipeline is untrained")
	}
	var proto gnn.Predictor
	switch prec {
	case PrecisionFloat32:
		proto = p.Model.QuantizeF32().Predictor()
	case PrecisionInt8:
		proto = p.Model.QuantizeI8().Predictor()
	default:
		proto = p.Model.Predictor()
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

// ClassifierSet is a named family of inference handles over one trained
// pipeline — typically one handle per precision tier, all sharing the
// model weights and encoder state. It is the multi-model serving
// layer's way to expose several views of one checkpoint (e.g. "default"
// at float64 next to "fast" at int8) without loading the weights twice.
// The set is immutable after construction; each handle is independently
// safe for concurrent use.
type ClassifierSet struct {
	byName map[string]*Classifier
	names  []string // construction order
}

// ClassifierSet builds one handle per entry of tiers (name → precision
// tier, empty meaning float64), in the order given. Names must be
// non-empty and unique.
func (p *Pipeline) ClassifierSet(names []string, tiers map[string]string) (*ClassifierSet, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("core: classifier set needs at least one name")
	}
	set := &ClassifierSet{byName: make(map[string]*Classifier, len(names))}
	for _, name := range names {
		if name == "" {
			return nil, fmt.Errorf("core: classifier set entry with empty name")
		}
		if _, dup := set.byName[name]; dup {
			return nil, fmt.Errorf("core: duplicate classifier set entry %q", name)
		}
		c, err := p.ClassifierPrecision(tiers[name])
		if err != nil {
			return nil, fmt.Errorf("core: classifier %q: %w", name, err)
		}
		set.byName[name] = c
		set.names = append(set.names, name)
	}
	return set, nil
}

// Get returns the named handle.
func (s *ClassifierSet) Get(name string) (*Classifier, bool) {
	c, ok := s.byName[name]
	return c, ok
}

// Names lists the handles in construction order.
func (s *ClassifierSet) Names() []string {
	return append([]string(nil), s.names...)
}

// Precision reports the handle's inference tier ("float64", "float32" or
// "int8").
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

// Fingerprint identifies this handle's model weights and encode
// configuration: two classifiers with equal fingerprints answer
// identically on every input. The serving layer keys its response cache
// and generation identity on it, so a hot-swapped model can never serve
// a prediction computed by the previous weights.
func (c *Classifier) Fingerprint() string {
	h := sha256.New()
	io.WriteString(h, nn.FingerprintParams(c.model.Params()))
	cfg := c.cfg
	fmt.Fprintf(h, "|v%d|w%+v|l%d|e%+v|s%d|t%d|n%d|p%s",
		cfg.Variants, cfg.WalkParams, cfg.WalkLen, cfg.EmbedCfg, cfg.Seed, cfg.MaxSteps, cfg.MaxTokens,
		c.Precision())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// classifyWith is the shared classify body: profile and encode the
// program under cfg, then predict every loop through PredictRecord.
func (c *Classifier) classifyWith(ctx context.Context, cfg dataset.Config, name, src string) ([]LoopPrediction, error) {
	// Request tracing: when ctx carries a trace (the serving path started
	// one), the per-loop stages below append spans to it; on an untraced
	// context every trace call is free — no allocations, no branches past
	// one context lookup — so the bit-identical batch path is unchanged.
	ctx, cspan := trace.StartSpan(ctx, "classify")
	if cspan != nil {
		cspan.SetAttr("program", name)
		defer cspan.End()
	}
	app := bench.App{Name: name, Suite: "user", Source: src}
	bctx, bspan := trace.StartSpan(ctx, "dataset.build")
	cfg.Ctx = bctx
	d, _, err := dataset.Build([]bench.App{app}, cfg)
	bspan.End()
	if err != nil {
		return nil, err
	}
	_, pspan := trace.StartSpan(ctx, "minic.parse")
	ast, err := minic.Parse(name, src)
	pspan.End()
	if err != nil {
		return nil, err
	}
	loopInfo := map[int]minic.LoopInfo{}
	for _, l := range ast.Loops() {
		loopInfo[l.ID] = l
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
		// A record can carry a loop ID absent from the parsed source (e.g.
		// if lowering and parsing ever disagree about loop identity); a
		// silent zero-value lookup would fabricate empty provenance, so
		// annotate the prediction and warn instead.
		if info, ok := loopInfo[rec.Meta.LoopID]; ok {
			lp.Func = info.Func
			lp.Line = info.Line
		} else {
			lp.Func = "(unknown)"
			lp.Reasons = append(lp.Reasons, fmt.Sprintf("no source loop info for loop %d", rec.Meta.LoopID))
			obs.Warn("classify.missing_loop_info", "program", name, "loop", rec.Meta.LoopID)
		}
		preds = append(preds, lp)
	}
	return preds, nil
}
