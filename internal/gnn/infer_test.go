package gnn

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"mvpar/internal/nn"
	"mvpar/internal/obs/trace"
	"mvpar/internal/tensor"
)

// TestPredictWithProbaMatchesSeparateCalls pins the single-forward
// contract of the float64 Predictor: every view's (class, P(class=1)) is
// bit-identical to nn.Predict and tensor.SoftmaxRows of that head's own
// logits, in every predict mode, and ViewTrained follows the mode. The
// serving path and the experiments read labels and probabilities through
// this one call.
func TestPredictWithProbaMatchesSeparateCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := makeSyntheticSamples(8, rng, 4)
	m := NewMVGNN(4, 4, 3)
	m.Train(samples, TrainConfig{Epochs: 3, LR: 0.005, Temperature: 0.5, ClipNorm: 5, BatchSize: 4, Seed: 3}, nil)
	node := func(s Sample) *tensor.Matrix { return m.NodeView.Forward(s.Node) }
	strct := func(s Sample) *tensor.Matrix { return m.StructView.Forward(s.Struct) }
	ctx := context.Background()
	for mode, trained := range []func(Sample) *tensor.Matrix{m.Forward, node, strct} {
		m.predictMode = mode
		p := m.Predictor()
		heads := map[View]func(Sample) *tensor.Matrix{ViewTrained: trained, ViewNode: node, ViewStruct: strct}
		for v, logits := range heads {
			for i, s := range samples {
				pred, proba := p.Predict(ctx, s, v)
				l := logits(s)
				if want := nn.Predict(l)[0]; pred != want {
					t.Fatalf("mode %d view %s sample %d: class %d, head argmax %d", mode, v, i, pred, want)
				}
				if want := tensor.SoftmaxRows(l).At(0, 1); proba != want {
					t.Fatalf("mode %d view %s sample %d: proba %v, head softmax %v", mode, v, i, proba, want)
				}
			}
		}
		for i, s := range samples {
			wc, wp := p.Predict(ctx, s, ViewTrained)
			if c, pr := m.PredictWithProba(s); c != wc || pr != wp {
				t.Fatalf("mode %d sample %d: PredictWithProba (%d, %v), Predictor (%d, %v)", mode, i, c, pr, wc, wp)
			}
		}
	}
}

// tierPredictors returns one Predictor per precision tier over m, in
// reference-first order.
func tierPredictors(m *MVGNN) []Predictor {
	return []Predictor{m.Predictor(), m.QuantizeF32().Predictor(), m.QuantizeI8().Predictor()}
}

// TestTracingDisabledAddsNoAllocs is the zero-overhead contract at the
// model layer: on an untraced context, Predict must allocate exactly as
// much as the tier's bare forward pass in every tier and view — the span
// calls must be free.
func TestTracingDisabledAddsNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := makeSyntheticSamples(1, rng, 4)[0]
	m := NewMVGNN(4, 4, 5)
	ctx := context.Background()
	for _, p := range tierPredictors(m) {
		for _, c := range []struct{ view, head View }{{ViewTrained, viewFused}, {ViewNode, ViewNode}} {
			t.Run(p.precision+"/"+c.view.String(), func(t *testing.T) {
				p.Predict(ctx, s, c.view) // warm activation caches and arenas
				base := testing.AllocsPerRun(50, func() { p.eng.forward(s, c.head) })
				traced := testing.AllocsPerRun(50, func() { p.Predict(ctx, s, c.view) })
				if traced > base {
					t.Fatalf("untraced-context prediction allocates %v/op, bare forward %v/op — tracing must be free when disabled", traced, base)
				}
			})
		}
	}
}

// TestForwardSpanAttrs pins the gnn.forward span shape under a live
// trace: every tier records the loop and its precision, and the view
// attribute appears exactly when the trained head did not answer.
func TestForwardSpanAttrs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := makeSyntheticSamples(1, rng, 4)[0]
	s.Meta.LoopID = 7
	m := NewMVGNN(4, 4, 5)
	for _, p := range tierPredictors(m) {
		for _, v := range []View{ViewTrained, ViewNode} {
			ctx, tr := trace.New(context.Background(), "test")
			p.Predict(ctx, s, v)
			tr.Finish()
			want := map[string]string{"loop": strconv.Itoa(s.Meta.LoopID), "precision": p.precision}
			if v != ViewTrained {
				want["view"] = v.String()
			}
			var forwards int
			for _, sp := range tr.Spans() {
				if sp.Name != "gnn.forward" {
					continue
				}
				forwards++
				got := map[string]string{}
				for _, a := range sp.Attrs {
					got[a.Key] = a.Value
				}
				if len(got) != len(want) {
					t.Errorf("%s/%s: attrs %v, want %v", p.precision, v, got, want)
				}
				for k, wv := range want {
					if got[k] != wv {
						t.Errorf("%s/%s: attr %s = %q, want %q", p.precision, v, k, got[k], wv)
					}
				}
			}
			if forwards != 1 {
				t.Errorf("%s/%s: %d gnn.forward spans, want 1", p.precision, v, forwards)
			}
		}
	}
}
