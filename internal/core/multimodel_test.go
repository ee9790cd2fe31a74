package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"mvpar/internal/core"
)

const multiSrc = `
float x[8]; float y[8];
void main() { for (int i = 0; i < 8; i++) { y[i] = x[i] * 2.0; } }
`

// TestShareEncoderVariantMatchesDonor pins the shared-encoder loading
// contract: a variant pipeline that adopts the donor's encoder and loads
// the donor's checkpoint must classify bit-identically to the donor —
// without rebuilding any encoder state of its own.
func TestShareEncoderVariantMatchesDonor(t *testing.T) {
	base := core.NewPipeline(tinyOptions())
	if _, err := base.TrainOn(tinyApps()); err != nil {
		t.Fatal(err)
	}
	want, err := base.ClassifySource("u", multiSrc)
	if err != nil {
		t.Fatal(err)
	}

	var ckpt bytes.Buffer
	if err := base.SaveModel(&ckpt); err != nil {
		t.Fatal(err)
	}

	variant := core.NewPipeline(core.Options{}) // options adopted from the donor
	if err := variant.ShareEncoder(base); err != nil {
		t.Fatal(err)
	}
	if err := variant.LoadModel(&ckpt); err != nil {
		t.Fatal(err)
	}
	got, err := variant.ClassifySource("u", multiSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("variant diverged from donor:\n got %+v\nwant %+v", got, want)
	}
}

func TestShareEncoderRequiresBuiltDataset(t *testing.T) {
	p := core.NewPipeline(tinyOptions())
	if err := p.ShareEncoder(nil); err == nil {
		t.Fatal("ShareEncoder(nil) succeeded")
	}
	if err := p.ShareEncoder(core.NewPipeline(tinyOptions())); err == nil {
		t.Fatal("ShareEncoder adopted an unbuilt dataset")
	}
}
