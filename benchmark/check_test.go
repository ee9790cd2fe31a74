package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"mvpar/internal/core"
)

// TestGateRejectsFlippedLabel serves one answer with a flipped oracle
// label among correct ones: the pass must report exactly that answer.
func TestGateRejectsFlippedLabel(t *testing.T) {
	srv := fakeServer(t, func(w http.ResponseWriter, req wireRequest) bool {
		if req.Name != "r3" {
			return false
		}
		a := okAnswer(req.Name)
		a.Predictions[0].Oracle = false
		json.NewEncoder(w).Encode(a)
		return true
	})
	tl := runLoad(context.Background(), testClient(t, time.Second), loadConfig{url: srv.URL, ref: newRefKernel(), length: 100 * time.Millisecond}, testStream)
	if tl.attempted < 4 {
		t.Fatalf("only %d requests sent", tl.attempted)
	}
	if len(tl.problems) != 1 || !strings.HasPrefix(tl.problems[0], "r3:") {
		t.Fatalf("problems %q, want one naming r3", tl.problems)
	}
	r := &report{}
	r.absorb(tl)
	if len(r.problems) != 1 || r.failed != 0 {
		t.Errorf("report carries %d problems and %d failures", len(r.problems), r.failed)
	}
}

func TestCheckAnswer(t *testing.T) {
	req := request{name: "p", loops: 2, oracle: map[int]bool{1: true, 2: false}}
	good := wireResponse{Name: "p", Precision: "float64", Predictions: []wirePrediction{{LoopID: 1, Oracle: true}, {LoopID: 2}}}
	if err := checkAnswer(req, &good); err != nil {
		t.Fatal(err)
	}
	for name, tamper := range map[string]func(*wireResponse){
		"name":         func(r *wireResponse) { r.Name = "q" },
		"tier":         func(r *wireResponse) { r.Precision = "int8" },
		"loop count":   func(r *wireResponse) { r.Predictions = r.Predictions[:1] },
		"oracle label": func(r *wireResponse) { r.Predictions[1].Oracle = true },
		"loop id":      func(r *wireResponse) { r.Predictions[1].LoopID = 9 },
	} {
		bad := good
		bad.Predictions = append([]wirePrediction(nil), good.Predictions...)
		tamper(&bad)
		if checkAnswer(req, &bad) == nil {
			t.Errorf("a wrong %s passes", name)
		}
	}
}

func TestSameAnswerIsBitExact(t *testing.T) {
	want := []core.LoopPrediction{{LoopID: 1, Func: "main", Line: 3, Parallel: true, Proba: 0.75, Oracle: true}}
	served := func() *wireResponse {
		return &wireResponse{Predictions: []wirePrediction{{LoopID: 1, Func: "main", Line: 3, Parallel: true, Proba: 0.75, Oracle: true}}}
	}
	if err := sameAnswer(served(), want); err != nil {
		t.Fatal(err)
	}
	flipped := served()
	flipped.Predictions[0].Parallel = false
	if sameAnswer(flipped, want) == nil {
		t.Error("a flipped label passes")
	}
	ulp := served()
	ulp.Predictions[0].Proba = math.Nextafter(0.75, 1)
	if sameAnswer(ulp, want) == nil {
		t.Error("a probability one ulp off passes")
	}
}

func TestSpanLayersAreSelfTimes(t *testing.T) {
	// The batcher span ends at dispatch; its replica child runs after it.
	spans := []wireSpan{
		{Span: 1, Name: "handler", StartUS: 0, DurUS: 1000},
		{Span: 2, Parent: 1, Name: "batcher", StartUS: 10, DurUS: 200},
		{Span: 3, Parent: 2, Name: "replica", StartUS: 210, DurUS: 700},
		{Span: 4, Parent: 3, Name: "classify", StartUS: 220, DurUS: 650},
		{Span: 5, Parent: 4, Name: "dataset.build", StartUS: 230, DurUS: 400},
		{Span: 6, Parent: 5, Name: "dataset.profile", StartUS: 240, DurUS: 250},
		{Span: 7, Parent: 5, Name: "dataset.encode", StartUS: 490, DurUS: 100},
		{Span: 8, Parent: 4, Name: "minic.parse", StartUS: 640, DurUS: 30},
		{Span: 9, Parent: 4, Name: "gnn.forward", StartUS: 680, DurUS: 60},
		{Span: 10, Parent: 4, Name: "gnn.forward", StartUS: 750, DurUS: 40},
	}
	want := map[string]float64{
		"serve.handler_self_us": 100,
		"serve.batcher_wait_us": 200,
		"serve.replica_self_us": 50,
		"core.classify_self_us": 120,
		"core.reparse_us":       30,
		"dataset.build_self_us": 50,
		"dataset.profile_us":    250,
		"dataset.encode_us":     100,
		"gnn.forward_us":        100,
	}
	if got := spanLayers(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("spanLayers = %v, want %v", got, want)
	}
	if len(spanMetrics) != len(want) {
		t.Errorf("spanMetrics lists %d names, spanLayers produces %d", len(spanMetrics), len(want))
	}
	for _, name := range spanMetrics {
		if _, ok := want[name]; !ok {
			t.Errorf("spanMetrics names %s, which spanLayers never produces", name)
		}
	}
}
