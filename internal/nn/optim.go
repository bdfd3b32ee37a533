package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba, 2015), the one training
// optimizer. It holds per-parameter state keyed by layer order, so one
// instance must be used with exactly one network.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t  int
	mw [][]float64
	vw [][]float64
	mb [][]float64
	vb [][]float64
}

// NewAdam returns Adam with the standard (0.9, 0.999, 1e-8) moments.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

func (a *Adam) ensure(m *MLP) {
	if a.mw != nil {
		return
	}
	for _, l := range m.Layers {
		a.mw = append(a.mw, make([]float64, len(l.W)))
		a.vw = append(a.vw, make([]float64, len(l.W)))
		a.mb = append(a.mb, make([]float64, len(l.B)))
		a.vb = append(a.vb, make([]float64, len(l.B)))
	}
}

// Step applies one update using the gradients accumulated since the last
// ZeroGrad, scaled by 1/batchSize.
func (a *Adam) Step(m *MLP, batchSize int) {
	a.ensure(m)
	a.t++
	scale := 1.0 / float64(batchSize)
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	if vectorTile {
		c := adamCoef{scale, a.Beta1, 1 - a.Beta1, a.Beta2, 1 - a.Beta2, a.LR, bc1, bc2, a.Epsilon}
		for li, l := range m.Layers {
			c.update(l.W, l.GradW, a.mw[li], a.vw[li], l.Mask)
			c.update(l.B, l.GradB, a.mb[li], a.vb[li], nil)
		}
		return
	}
	for li, l := range m.Layers {
		mw, vw, mb, vb := a.mw[li], a.vw[li], a.mb[li], a.vb[li]
		for i := range l.W {
			g := l.GradW[i] * scale
			mw[i] = a.Beta1*mw[i] + (1-a.Beta1)*g
			vw[i] = a.Beta2*vw[i] + (1-a.Beta2)*g*g
			l.W[i] -= a.LR * (mw[i] / bc1) / (math.Sqrt(vw[i]/bc2) + a.Epsilon)
		}
		for i := range l.B {
			g := l.GradB[i] * scale
			mb[i] = a.Beta1*mb[i] + (1-a.Beta1)*g
			vb[i] = a.Beta2*vb[i] + (1-a.Beta2)*g*g
			l.B[i] -= a.LR * (mb[i] / bc1) / (math.Sqrt(vb[i]/bc2) + a.Epsilon)
		}
		l.ApplyMask()
	}
}

// adamCoef is one Adam step's coefficients, laid out as adamStep reads
// them.
type adamCoef struct {
	scale, beta1, oneMinusBeta1, beta2, oneMinusBeta2, lr, bc1, bc2, eps float64
}

// update is Step's update of one parameter array and its gradient on the
// vector kernel, with Dense.ApplyMask folded in for a non-nil mask. The
// last len(w)%4 elements take the scalar code's operations, in its order.
func (c *adamCoef) update(w, g, m, v, mask []float64) {
	n := len(w)
	g, m, v = g[:n], m[:n], v[:n]
	if mask != nil {
		mask = mask[:n]
	}
	k := n &^ 3
	if k > 0 {
		var mp *float64
		if mask != nil {
			mp = &mask[0]
		}
		adamStep(&w[0], &g[0], &m[0], &v[0], mp, k, c)
	}
	for i := k; i < n; i++ {
		gi := g[i] * c.scale
		m[i] = c.beta1*m[i] + c.oneMinusBeta1*gi
		v[i] = c.beta2*v[i] + c.oneMinusBeta2*gi*gi
		w[i] -= c.lr * (m[i] / c.bc1) / (math.Sqrt(v[i]/c.bc2) + c.eps)
		if mask != nil && mask[i] == 0 {
			w[i], g[i] = 0, 0
		}
	}
}
