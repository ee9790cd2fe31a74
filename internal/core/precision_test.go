package core_test

import (
	"bytes"
	"strings"
	"testing"

	"mvpar/internal/core"
)

// TestParsePrecision pins the flag-value contract: empty means float64,
// both tiers resolve with surrounding whitespace and arbitrary case
// folded away, and an unknown tier errors with every valid tier named.
// float32 is not a served tier.
func TestParsePrecision(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"", core.PrecisionFloat64, true},
		{"float64", core.PrecisionFloat64, true},
		{"int8", core.PrecisionInt8, true},
		{"Float64", core.PrecisionFloat64, true},
		{"Int8", core.PrecisionInt8, true},
		{"INT8", core.PrecisionInt8, true},
		{" float64", core.PrecisionFloat64, true},
		{"int8\t", core.PrecisionInt8, true},
		{"  Float64  ", core.PrecisionFloat64, true},
		{"   ", core.PrecisionFloat64, true}, // whitespace-only = unset
		{"float32", "", false},
		{"f32", "", false},
		{"float16", "", false},
		{"int", "", false},
		{"int 8", "", false},
	}
	for _, tc := range cases {
		got, err := core.ParsePrecision(tc.in)
		if tc.ok {
			if err != nil {
				t.Errorf("ParsePrecision(%q) errored: %v", tc.in, err)
			} else if got != tc.want {
				t.Errorf("ParsePrecision(%q) = %q, want %q", tc.in, got, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParsePrecision(%q) = %q, want error", tc.in, got)
			continue
		}
		for _, tier := range []string{core.PrecisionFloat64, core.PrecisionInt8} {
			if !strings.Contains(err.Error(), tier) {
				t.Errorf("ParsePrecision(%q) error %q does not name tier %q", tc.in, err, tier)
			}
		}
	}
}

// TestClassifierFingerprintDistinctAcrossTiers: the precision tier is part
// of the classifier fingerprint, so the serving layer's response cache and
// generation identity can never mix tiers that answer differently.
func TestClassifierFingerprintDistinctAcrossTiers(t *testing.T) {
	pl := core.NewPipeline(tinyOptions())
	if _, err := pl.TrainOn(tinyApps()); err != nil {
		t.Fatal(err)
	}
	fps := map[string]string{}
	for _, tier := range []string{core.PrecisionFloat64, core.PrecisionInt8} {
		cls, err := pl.ClassifierPrecision(tier)
		if err != nil {
			t.Fatalf("tier %s: %v", tier, err)
		}
		if got := cls.Precision(); got != tier {
			t.Fatalf("tier %s: Precision() = %q", tier, got)
		}
		fp := cls.Fingerprint()
		for other, ofp := range fps {
			if fp == ofp {
				t.Fatalf("tiers %s and %s share fingerprint %s", tier, other, fp)
			}
		}
		fps[tier] = fp
	}
}

// TestLoadModelRequantizesFastTiers: a fast-tier handle taken after
// LoadModel must serve the loaded weights. LoadModel replaces the live
// model's parameters in place, so a quantized snapshot kept from before
// the load would keep answering with the old weights under the new
// weights' fingerprint. Every tier must answer exactly like a pipeline
// that only ever saw the loaded checkpoint.
func TestLoadModelRequantizesFastTiers(t *testing.T) {
	pl := core.NewPipeline(tinyOptions())
	if _, err := pl.TrainOn(tinyApps()); err != nil {
		t.Fatal(err)
	}
	otherOpts := tinyOptions()
	otherOpts.Seed = 2
	other := core.NewPipeline(otherOpts)
	if _, err := other.TrainOn(tinyApps()); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := other.SaveModel(&ckpt); err != nil {
		t.Fatal(err)
	}
	fresh := core.NewPipeline(tinyOptions())
	if err := fresh.ShareEncoder(pl); err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadModel(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	tiers := []string{core.PrecisionFloat64, core.PrecisionInt8}
	for _, tier := range tiers {
		if _, err := pl.ClassifierPrecision(tier); err != nil { // quantize the pre-load weights
			t.Fatal(err)
		}
	}
	if err := pl.LoadModel(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, tier := range tiers {
		t.Run(tier, func(t *testing.T) {
			got, err := pl.ClassifierPrecision(tier)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.ClassifierPrecision(tier)
			if err != nil {
				t.Fatal(err)
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("fingerprint %s, fresh pipeline %s", got.Fingerprint(), want.Fingerprint())
			}
			for _, app := range tinyApps() {
				gp, err := got.Classify(app.Name, app.Source)
				if err != nil {
					t.Fatal(err)
				}
				wp, err := want.Classify(app.Name, app.Source)
				if err != nil {
					t.Fatal(err)
				}
				if len(gp) != len(wp) {
					t.Fatalf("%s: %d predictions, fresh pipeline %d", app.Name, len(gp), len(wp))
				}
				for i := range gp {
					if gp[i].Parallel != wp[i].Parallel || gp[i].Proba != wp[i].Proba {
						t.Fatalf("%s loop %d: (%v, %v) after LoadModel, fresh pipeline (%v, %v)",
							app.Name, gp[i].LoopID, gp[i].Parallel, gp[i].Proba, wp[i].Parallel, wp[i].Proba)
					}
				}
			}
		})
	}
}
