package serve

import "sync"

// Fingerprinter is the optional identity surface of an Inference; the
// server reports it as the generation's model identity in /healthz,
// reload results and mvpar_build_info. *core.Classifier implements it.
type Fingerprinter interface {
	Fingerprint() string
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
	fp  string
	inf Inference

	// inflight counts requests pinned to this generation (admitted but
	// not yet answered). The swap path waits on it to declare the
	// generation drained.
	inflight sync.WaitGroup
}

func newGeneration(id uint64, inf Inference) *generation {
	g := &generation{id: id, inf: inf}
	if fp, ok := inf.(Fingerprinter); ok {
		g.fp = fp.Fingerprint()
	}
	return g
}
