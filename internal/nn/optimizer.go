package nn

import (
	"math"

	"mvpar/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
	m map[*Param]*tensor.Matrix
	v map[*Param]*tensor.Matrix
}

// NewAdam creates an Adam optimizer with the usual defaults
// (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		m:     map[*Param]*tensor.Matrix{},
		v:     map[*Param]*tensor.Matrix{},
	}
}

// Step applies one Adam update to every parameter and zeroes the gradients.
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		g := p.Grad
		if a.WeightDecay != 0 {
			for i := range g.Data {
				g.Data[i] += a.WeightDecay * p.Value.Data[i]
			}
		}
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = tensor.New(g.Rows, g.Cols)
			v = tensor.New(g.Rows, g.Cols)
			a.m[p] = m
			a.v[p] = v
		}
		for i := range g.Data {
			gi := g.Data[i]
			m.Data[i] = a.Beta1*m.Data[i] + (1-a.Beta1)*gi
			v.Data[i] = a.Beta2*v.Data[i] + (1-a.Beta2)*gi*gi
			mHat := m.Data[i] / bc1
			vHat := v.Data[i] / bc2
			p.Value.Data[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
		p.Bump()
		p.ZeroGrad()
	}
}
