package gnn

import (
	"context"
	"math"

	"mvpar/internal/obs/trace"
	"mvpar/internal/tensor"
)

// View selects which of the model's heads answers a prediction.
type View int

const (
	// ViewTrained answers from the head Train selected: the fusion head
	// unless one view's own head scored better on the held-out split.
	ViewTrained View = iota
	// ViewNode answers from the node view's own head — the paper's
	// Static-GNN geometry, and the answer for a loop whose structural
	// view went over its walk budget (dataset.Record.Degraded).
	ViewNode
	// ViewStruct answers from the structural view's own head.
	ViewStruct
	// viewFused is the fusion head; only ViewTrained resolves to it.
	viewFused
)

// String names the view; a gnn.forward span records ViewNode and
// ViewStruct under these names.
func (v View) String() string {
	switch v {
	case ViewNode:
		return "node"
	case ViewStruct:
		return "struct"
	case viewFused:
		return "fused"
	}
	return "trained"
}

// engine is one precision tier's forward pass: *MVGNN (float64),
// *MVGNNF32 or *MVGNNI8. forward answers from head h — viewFused,
// ViewNode or ViewStruct, never ViewTrained — with the predicted class
// and P(class=1).
type engine interface {
	forward(s Sample, h View) (int, float64)
	replicate() engine
}

// Predictor is the one inference entry point of a precision tier. Get
// one from MVGNN.Predictor (float64, the bit-identity reference),
// MVGNNF32.Predictor or MVGNNI8.Predictor. Like the engine behind it, a
// Predictor is goroutine-private; Replicate gives each worker its own.
type Predictor struct {
	eng       engine
	precision string
	// predictMode is the training-time head selection of the model the
	// engine came from: 0 = fused, 1 = node head, 2 = struct head.
	predictMode int
}

// Predictor returns the float64 Predictor running on m itself.
func (m *MVGNN) Predictor() Predictor {
	return Predictor{eng: m, precision: "float64", predictMode: m.predictMode}
}

// Replicate returns a Predictor of the same tier on a worker-private
// engine replica that shares p's (possibly quantized) weights.
func (p Predictor) Replicate() Predictor {
	p.eng = p.eng.replicate()
	return p
}

// Predict returns the predicted class and P(class=1) for one sample from
// a single forward pass of view v's head, timed as a "gnn.forward" span.
// If ctx carries a request trace the span records the sample's loop, the
// precision tier and, unless the trained head answered, the view; on an
// untraced context it allocates nothing.
func (p Predictor) Predict(ctx context.Context, s Sample, v View) (int, float64) {
	_, sp := trace.StartSpan(ctx, "gnn.forward")
	defer sp.End()
	sp.SetAttrInt("loop", int64(s.Meta.LoopID))
	sp.SetAttr("precision", p.precision)
	if v != ViewTrained {
		sp.SetAttr("view", v.String())
	}
	if v == ViewTrained {
		v = headView(p.predictMode)
	}
	return p.eng.forward(s, v)
}

// Labeler adapts p to Evaluate and EvaluateParallel: the class view v
// predicts for a sample, on an untraced context.
func (p Predictor) Labeler(v View) func(Sample) int {
	return func(s Sample) int {
		c, _ := p.Predict(context.Background(), s, v)
		return c
	}
}

// forward is the float64 engine.
func (m *MVGNN) forward(s Sample, h View) (int, float64) {
	switch h {
	case ViewNode:
		return classFrom(m.NodeView.Forward(s.Node))
	case ViewStruct:
		return classFrom(m.StructView.Forward(s.Struct))
	}
	return classFrom(m.Forward(s))
}

func (m *MVGNN) replicate() engine { return m.Replicate() }

// classFrom reduces one logits row to its argmax class (the first on
// ties) and P(class=1), without allocating. The probability follows
// tensor.SoftmaxRows step for step (max shift, exp summed in column
// order, one reciprocal, then a multiply), so it is bit-identical to
// tensor.SoftmaxRows(logits).At(0, 1).
func classFrom(logits *tensor.Matrix) (int, float64) {
	row := logits.Row(0)
	best := 0
	maxv := math.Inf(-1)
	for j, v := range row {
		if v > row[best] {
			best = j
		}
		if v > maxv {
			maxv = v
		}
	}
	sum, e1 := 0.0, 0.0
	for j, v := range row {
		e := math.Exp(v - maxv)
		sum += e
		if j == 1 {
			e1 = e
		}
	}
	inv := 1.0 / sum
	return best, e1 * inv
}

// PredictWithProba is the float64 trained-head prediction: class and
// P(class=1) from one forward pass.
func (m *MVGNN) PredictWithProba(s Sample) (int, float64) {
	return m.Predictor().Predict(context.Background(), s, ViewTrained)
}

// quantized returns the lazily built float32 inference replica. The first
// call snapshots the current weights (see QuantizeF32); the model must be
// frozen by then. Safe only on a goroutine-private model/replica, like
// every other forward entry point.
func (m *MVGNN) quantized() *MVGNNF32 {
	if m.f32 == nil {
		m.f32 = m.QuantizeF32()
	}
	return m.f32
}

// PrepareF32 performs the one-time float32 quantization behind
// PredictWithProbaF32 eagerly, outside a timed region.
func (m *MVGNN) PrepareF32() { m.quantized() }

// PredictWithProbaF32 is PredictWithProba on the float32 tier. Labels
// and probabilities track the float64 path within the tolerance
// TestPredictWithProbaF32Parity allows, not bit-identically.
func (m *MVGNN) PredictWithProbaF32(s Sample) (int, float64) {
	return m.quantized().Predictor().Predict(context.Background(), s, ViewTrained)
}

// quantizedI8 returns the lazily built int8 inference replica, with the
// same freeze-before-first-use contract as quantized().
func (m *MVGNN) quantizedI8() *MVGNNI8 {
	if m.i8 == nil {
		m.i8 = m.QuantizeI8()
	}
	return m.i8
}

// PrepareI8 performs the one-time int8 quantization behind
// PredictWithProbaI8 eagerly, outside a timed region.
func (m *MVGNN) PrepareI8() { m.quantizedI8() }

// PredictWithProbaI8 is PredictWithProba on the int8 tier. Labels and
// probabilities track the float64 path within the drift that
// TestPredictWithProbaI8Parity allows — looser than float32's, and never
// bit-identical.
func (m *MVGNN) PredictWithProbaI8(s Sample) (int, float64) {
	return m.quantizedI8().Predictor().Predict(context.Background(), s, ViewTrained)
}
