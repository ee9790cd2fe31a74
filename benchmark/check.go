package main

import (
	"fmt"
	"math"

	"mvpar/internal/core"
)

// checkAnswer is the per-answer part of the correctness gate: the answer
// names the request, comes from the float64 reference tier, covers every
// loop, and carries the base program's oracle labels.
func checkAnswer(req request, resp *wireResponse) error {
	if resp.Name != req.name {
		return fmt.Errorf("answer names %q", resp.Name)
	}
	if resp.Precision != core.PrecisionFloat64 {
		return fmt.Errorf("answered by the %q tier, want %s", resp.Precision, core.PrecisionFloat64)
	}
	if len(resp.Predictions) != req.loops {
		return fmt.Errorf("%d predictions for %d loops", len(resp.Predictions), req.loops)
	}
	for _, p := range resp.Predictions {
		want, ok := req.oracle[p.LoopID]
		if !ok {
			return fmt.Errorf("prediction for unknown loop %d", p.LoopID)
		}
		if p.Oracle != want {
			return fmt.Errorf("loop %d: oracle label %v, the base program's is %v", p.LoopID, p.Oracle, want)
		}
	}
	return nil
}

// sameAnswer compares a served answer with the in-process classification
// of the same program. Probabilities must match bit for bit: both run the
// float64 path over the same checkpoint.
func sameAnswer(resp *wireResponse, want []core.LoopPrediction) error {
	if len(resp.Predictions) != len(want) {
		return fmt.Errorf("%d served predictions, %d in process", len(resp.Predictions), len(want))
	}
	for j, p := range resp.Predictions {
		w := want[j]
		if p.LoopID != w.LoopID || p.Func != w.Func || p.Line != w.Line || p.Parallel != w.Parallel ||
			p.Oracle != w.Oracle || p.Degraded != w.Degraded || math.Float64bits(p.Proba) != math.Float64bits(w.Proba) {
			return fmt.Errorf("loop %d: served %+v, in process %+v", p.LoopID, p, w)
		}
	}
	return nil
}

// spanLayers turns one answer's span tree into per-layer times in µs. A
// span's self time is its duration minus the time its children cover. A
// child counts toward the nearest ancestor whose interval contains it:
// the server ends the "batcher" span at dispatch, so its "replica" child
// runs after it and belongs to the handler.
func spanLayers(spans []wireSpan) map[string]float64 {
	byID := make(map[uint64]wireSpan, len(spans))
	for _, s := range spans {
		byID[s.Span] = s
	}
	covered := map[uint64]float64{}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		for ok && !contains(p, s) {
			p, ok = byID[p.Parent]
		}
		if ok {
			covered[p.Span] += s.DurUS
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		self := s.DurUS - covered[s.Span]
		switch s.Name {
		case "handler":
			out["serve.handler_self_us"] += self
		case "batcher":
			out["serve.batcher_wait_us"] += self
		case "replica":
			out["serve.replica_self_us"] += self
		case "classify":
			out["core.classify_self_us"] += self
		case "minic.parse":
			out["core.reparse_us"] += s.DurUS
		case "dataset.build":
			out["dataset.build_self_us"] += self
		case "dataset.profile":
			out["dataset.profile_us"] += s.DurUS
		case "dataset.encode":
			out["dataset.encode_us"] += s.DurUS
		case "gnn.forward":
			out["gnn.forward_us"] += s.DurUS
		}
	}
	return out
}

// contains reports whether c runs inside p's interval, to within the
// microsecond rounding of the offsets.
func contains(p, c wireSpan) bool {
	const slack = 1
	return c.StartUS >= p.StartUS-slack && c.StartUS+c.DurUS <= p.StartUS+p.DurUS+slack
}

// spanMetrics are the keys spanLayers produces.
var spanMetrics = []string{
	"serve.handler_self_us", "serve.batcher_wait_us", "serve.replica_self_us",
	"core.classify_self_us", "core.reparse_us", "dataset.build_self_us",
	"dataset.profile_us", "dataset.encode_us", "gnn.forward_us",
}
