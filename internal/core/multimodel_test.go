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

// TestShareEncoderVariantMatchesDonor pins the multi-model loading
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

// TestClassifierSet pins the named-handle family: tiered handles share
// one checkpoint, lookups respect construction order, and invalid
// shapes are rejected.
func TestClassifierSet(t *testing.T) {
	pl := core.NewPipeline(tinyOptions())
	if _, err := pl.TrainOn(tinyApps()); err != nil {
		t.Fatal(err)
	}
	set, err := pl.ClassifierSet(
		[]string{"default", "fast"},
		map[string]string{"fast": core.PrecisionInt8},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Names(); !reflect.DeepEqual(got, []string{"default", "fast"}) {
		t.Fatalf("Names() = %v, want construction order", got)
	}
	def, ok := set.Get("default")
	if !ok || def.Precision() != core.PrecisionFloat64 {
		t.Fatalf("default handle = (%v, %v), want a float64 classifier", def, ok)
	}
	fast, ok := set.Get("fast")
	if !ok || fast.Precision() != core.PrecisionInt8 {
		t.Fatalf("fast handle = (%v, %v), want an int8 classifier", fast, ok)
	}
	if _, ok := set.Get("ghost"); ok {
		t.Fatal("Get invented a handle")
	}
	preds, err := def.Classify("u", multiSrc)
	if err != nil || len(preds) == 0 {
		t.Fatalf("default handle classify = (%v, %v), want predictions", preds, err)
	}

	for _, bad := range []struct {
		names []string
		tiers map[string]string
	}{
		{nil, nil},
		{[]string{""}, nil},
		{[]string{"a", "a"}, nil},
		{[]string{"a"}, map[string]string{"a": "float16"}},
	} {
		if _, err := pl.ClassifierSet(bad.names, bad.tiers); err == nil {
			t.Errorf("ClassifierSet(%v, %v) accepted an invalid shape", bad.names, bad.tiers)
		}
	}
}
