package serve

import (
	"context"
	"sync"

	"mvpar/internal/core"
)

// DegradedInference is the optional degraded-mode surface of an
// Inference: a cheaper, node-view-only classification the server falls
// back to when the full classification faults. *core.Classifier
// implements it.
type DegradedInference interface {
	ClassifyDegradedContext(ctx context.Context, name, src string) ([]core.LoopPrediction, error)
}

// Fingerprinter is the optional identity surface of an Inference; the
// server reports it as the generation's model identity in /healthz,
// reload results and mvpar_model_info. *core.Classifier implements it.
type Fingerprinter interface {
	Fingerprint() string
}

// Precisioner is the optional precision surface of an Inference: which
// inference engine ("float64" or "int8") answers its
// predictions.
// *core.Classifier implements it; implementations without it are
// reported as float64 (the bit-identity default).
type Precisioner interface {
	Precision() string
}

// generation is one live model: an immutable Inference plus the
// in-flight accounting that lets a hot swap drain it. Requests are
// pinned to the generation that was current when they were admitted and
// execute against it even if a swap lands mid-flight; the old
// generation's drain completes when its last pinned request finishes.
type generation struct {
	id uint64
	// fp identifies the weights + encode config (empty when the Inference
	// is not a Fingerprinter).
	fp   string
	prec string // inference precision tier
	inf  Inference

	// inflight counts requests pinned to this generation (admitted but
	// not yet answered). The swap path waits on it to declare the
	// generation drained.
	inflight sync.WaitGroup
}

func newGeneration(id uint64, inf Inference) *generation {
	g := &generation{id: id, prec: "float64", inf: inf}
	if fp, ok := inf.(Fingerprinter); ok {
		g.fp = fp.Fingerprint()
	}
	if p, ok := inf.(Precisioner); ok {
		g.prec = p.Precision()
	}
	return g
}
