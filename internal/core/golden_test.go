package core_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mvpar/internal/bench"
	"mvpar/internal/core"
	"mvpar/internal/gnn"
)

// TestForwardGolden pins the float64 forward pass bit for bit: the class
// and the bits of P(class=1) of every record of the whole corpus, under
// the trained head and each view's own head. A kernel rewrite that moves
// a single rounding shows up as a hash mismatch. It also pins the
// trained classifier's fingerprint, which hashes the weights and the
// encode configuration's printed form, so a renamed or deleted config
// field that would move /healthz's identity fails here too.
func TestForwardGolden(t *testing.T) {
	const (
		wantHash        = uint64(0xb7ab4c7c18cf3af9)
		wantFingerprint = "e88c04fb812df2fc"
	)
	opts := tinyOptions()
	opts.Train.Epochs = 2
	pl := core.NewPipeline(opts)
	if _, err := pl.TrainOnContext(context.Background(), bench.Corpus()); err != nil {
		t.Fatal(err)
	}
	pred := pl.Model.Predictor()
	h := fnv.New64a()
	var buf [8]byte
	write := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, rec := range pl.Dataset.Records {
		for _, v := range []gnn.View{gnn.ViewTrained, gnn.ViewNode, gnn.ViewStruct} {
			class, p := pred.Predict(context.Background(), rec.Sample, v)
			write(math.Float64bits(float64(class)))
			write(math.Float64bits(p))
		}
	}
	if h.Sum64() != wantHash {
		t.Fatalf("forward hash %#x, want %#x", h.Sum64(), wantHash)
	}
	cls, err := pl.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	if fp := cls.Fingerprint(); fp != wantFingerprint {
		t.Fatalf("fingerprint %s, want %s", fp, wantFingerprint)
	}
}
