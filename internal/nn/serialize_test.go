package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"

	"mvpar/internal/tensor"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := NewRNG(1)
	d1 := NewDense("a", 3, 4, rng)
	d2 := NewDense("b", 4, 2, rng)
	params := append(d1.Params(), d2.Params()...)

	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	saved := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		saved[i] = p.Value.Clone()
		p.Value.ScaleInPlace(0)
	}
	if err := LoadParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	for i, p := range params {
		if !tensor.ApproxEqual(p.Value, saved[i], 0) {
			t.Fatalf("param %s not restored", p.Name)
		}
	}
}

func TestLoadMissingParam(t *testing.T) {
	rng := NewRNG(2)
	src := NewDense("x", 2, 2, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	dst := NewDense("y", 2, 2, rng)
	if err := LoadParams(&buf, dst.Params()); err == nil {
		t.Fatal("expected error for missing parameter name")
	}
}

func TestLoadShapeMismatch(t *testing.T) {
	rng := NewRNG(3)
	src := NewDense("x", 2, 2, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	dst := NewDense("x", 2, 3, rng)
	if err := LoadParams(&buf, dst.Params()); err == nil {
		t.Fatal("expected error for shape mismatch")
	}
}

func TestLoadGarbage(t *testing.T) {
	rng := NewRNG(4)
	d := NewDense("x", 2, 2, rng)
	if err := LoadParams(bytes.NewBufferString("not a gob stream"), d.Params()); err == nil {
		t.Fatal("expected decode error")
	}
}

func saveToBytes(t *testing.T, params []*Param) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveWritesHeader(t *testing.T) {
	rng := NewRNG(5)
	d := NewDense("x", 2, 2, rng)
	raw := saveToBytes(t, d.Params())
	if !bytes.HasPrefix(raw, []byte(paramsMagic)) {
		t.Fatalf("stream does not start with magic: % x", raw[:16])
	}
}

func TestLoadTruncated(t *testing.T) {
	rng := NewRNG(6)
	d := NewDense("x", 2, 2, rng)
	raw := saveToBytes(t, d.Params())
	for _, cut := range []int{4, len(paramsMagic) + 8, len(raw) - 1} {
		err := LoadParams(bytes.NewReader(raw[:cut]), d.Params())
		if err == nil {
			t.Fatalf("truncation at %d bytes loaded successfully", cut)
		}
		if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "decode") {
			t.Fatalf("truncation at %d: unclear error: %v", cut, err)
		}
	}
}

func TestLoadCorrupted(t *testing.T) {
	rng := NewRNG(7)
	d := NewDense("x", 2, 2, rng)
	raw := saveToBytes(t, d.Params())
	raw[len(raw)-3] ^= 0x40 // flip one payload bit
	err := LoadParams(bytes.NewReader(raw), d.Params())
	if err == nil {
		t.Fatal("corrupted stream loaded successfully")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption not reported as checksum mismatch: %v", err)
	}
}

func TestLoadUnknownVersion(t *testing.T) {
	rng := NewRNG(8)
	d := NewDense("x", 2, 2, rng)
	raw := saveToBytes(t, d.Params())
	raw[len(paramsMagic)+3] = 99
	err := LoadParams(bytes.NewReader(raw), d.Params())
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version not rejected clearly: %v", err)
	}
}

// TestLoadLegacyStream checks that a headerless gob stream — the format
// written before the container existed — fails to load, naming the
// missing header, and leaves the target's weights as they were.
func TestLoadLegacyStream(t *testing.T) {
	rng := NewRNG(9)
	src := NewDense("x", 3, 3, rng)
	blobs := make([]paramBlob, 0, len(src.Params()))
	for _, p := range src.Params() {
		blobs = append(blobs, paramBlob{
			Name: p.Name, Rows: p.Value.Rows, Cols: p.Value.Cols, Data: p.Value.Data,
		})
	}
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(blobs); err != nil {
		t.Fatal(err)
	}
	dst := NewDense("x", 3, 3, NewRNG(10))
	before := FingerprintParams(dst.Params())
	err := LoadParams(&legacy, dst.Params())
	if err == nil {
		t.Fatal("headerless stream loaded")
	}
	if !strings.Contains(err.Error(), "header") || !strings.Contains(err.Error(), fmt.Sprintf("%q", paramsMagic)) {
		t.Fatalf("headerless stream rejected without naming the header: %v", err)
	}
	if after := FingerprintParams(dst.Params()); after != before {
		t.Fatalf("rejected stream changed the weights: fingerprint %s, was %s", after, before)
	}
}
