package nn

import (
	"math"

	"mvpar/internal/tensor"
)

// SGD is stochastic gradient descent with optional momentum and L2 weight
// decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param]*tensor.Matrix
}

// NewSGD creates an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: map[*Param]*tensor.Matrix{}}
}

// Step applies one SGD update to every parameter and zeroes the gradients.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		g := p.Grad
		if s.WeightDecay != 0 {
			for i := range g.Data {
				g.Data[i] += s.WeightDecay * p.Value.Data[i]
			}
		}
		if s.Momentum != 0 {
			v := s.velocity[p]
			if v == nil {
				v = tensor.New(g.Rows, g.Cols)
				s.velocity[p] = v
			}
			for i := range v.Data {
				v.Data[i] = s.Momentum*v.Data[i] + g.Data[i]
				p.Value.Data[i] -= s.LR * v.Data[i]
			}
		} else {
			// x - lr·g == x + (-lr)·g bit for bit (IEEE negation is exact).
			tensor.AddScaledInto(p.Value, p.Value, g, -s.LR)
		}
		p.Bump()
		p.ZeroGrad()
	}
}

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
