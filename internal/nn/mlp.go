package nn

import (
	"fmt"
	"math/rand"
)

// MLP is a multi-layer perceptron: Dense layers with ReLU between them
// and a linear final layer (callers apply softmax or use raw outputs for
// regression).
type MLP struct {
	Layers []*Dense
}

// NewMLP builds an MLP with the given layer sizes, e.g. [6, 20, 20, 6]
// creates two hidden layers. len(sizes) must be at least 2.
func NewMLP(sizes []int, rng *rand.Rand) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: MLP needs at least input and output sizes, got %v", sizes)
	}
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("nn: MLP size %d is %d, want > 0", i, s)
		}
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewDense(sizes[i], sizes[i+1], rng))
	}
	return m, nil
}

// Sizes returns the layer sizes [in, h1, ..., out].
func (m *MLP) Sizes() []int {
	out := []int{m.Layers[0].In}
	for _, l := range m.Layers {
		out = append(out, l.Out)
	}
	return out
}

// InputSize returns the expected input dimension.
func (m *MLP) InputSize() int { return m.Layers[0].In }

// OutputSize returns the output dimension.
func (m *MLP) OutputSize() int { return m.Layers[len(m.Layers)-1].Out }

func relu(v []float64) {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
}

// Forward runs inference, returning the final linear outputs (logits for
// classification heads, raw values for regression heads). Forward only
// reads the network's weights, so one MLP may serve any number of
// concurrent Forward callers (training mutates weights and must not run
// concurrently with inference). It allocates per call: it serves offline
// evaluation and is the reference ForwardBatch must match bit for bit,
// while serving goes through an infer.Backend (infer.New) onto
// ForwardBatch.
func (m *MLP) Forward(x []float64) []float64 {
	h := x
	for i, l := range m.Layers {
		h = l.Forward(h)
		if i+1 < len(m.Layers) {
			relu(h)
		}
	}
	return h
}

// ZeroGrad clears all accumulated gradients.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		l.ZeroGrad()
	}
}

// Params returns total parameter count.
func (m *MLP) Params() int {
	n := 0
	for _, l := range m.Layers {
		n += l.Params()
	}
	return n
}

// FLOPs returns dense inference cost.
func (m *MLP) FLOPs() int {
	n := 0
	for _, l := range m.Layers {
		n += l.FLOPs()
	}
	return n
}

// EffectiveFLOPs returns sparse inference cost after pruning.
func (m *MLP) EffectiveFLOPs() int {
	n := 0
	for _, l := range m.Layers {
		n += l.EffectiveFLOPs()
	}
	return n
}

// Clone deep-copies the network.
func (m *MLP) Clone() *MLP {
	cp := &MLP{Layers: make([]*Dense, len(m.Layers))}
	for i, l := range m.Layers {
		cp.Layers[i] = l.Clone()
	}
	return cp
}
