package serve

import (
	"context"
	"fmt"
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
// server keys caches and generation identity on it. *core.Classifier
// implements it.
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
	id    uint64
	model string // registry name of the model this generation serves
	// fp identifies the weights + encode config (empty when the Inference
	// is not a Fingerprinter; the generation id still separates cache
	// namespaces).
	fp   string
	prec string // inference precision tier
	inf  Inference

	// inflight counts requests pinned to this generation (admitted but
	// not yet answered). The swap path waits on it to declare the
	// generation drained.
	inflight sync.WaitGroup
}

func newGeneration(id uint64, modelName string, inf Inference) *generation {
	g := &generation{id: id, model: modelName, prec: "float64", inf: inf}
	if fp, ok := inf.(Fingerprinter); ok {
		g.fp = fp.Fingerprint()
	}
	if p, ok := inf.(Precisioner); ok {
		g.prec = p.Precision()
	}
	return g
}

// key is the generation's cache-key namespace: model name, id and
// fingerprint, so neither a reload (new id), a changed config (new
// fingerprint) nor another registry entry that happens to share weights
// can ever surface a prediction computed under a different identity.
func (g *generation) key() string {
	return fmt.Sprintf("m:%s|g%d:%s", g.model, g.id, g.fp)
}
