package serve

// Fingerprinter is the optional identity surface of an Inference; the
// server reports it as the generation's model identity in /healthz,
// reload results and mvpar_build_info. *core.Classifier implements it.
type Fingerprinter interface {
	Fingerprint() string
}

// generation is one live model: an immutable Inference and its
// identity. A request pins its generation by holding the *generation it
// loaded at admission and runs against it even if a hot swap lands
// mid-flight; the old generation is garbage once its last request lets
// go of the pointer.
type generation struct {
	id uint64
	// fp identifies the weights + encode config (empty when the Inference
	// is not a Fingerprinter).
	fp  string
	inf Inference
}

func newGeneration(id uint64, inf Inference) *generation {
	g := &generation{id: id, inf: inf}
	if fp, ok := inf.(Fingerprinter); ok {
		g.fp = fp.Fingerprint()
	}
	return g
}
