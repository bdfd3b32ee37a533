// Package nn is a from-scratch, stdlib-only neural-network library
// sufficient for the paper's models: fully connected ReLU MLPs trained
// with minibatch Adam on softmax-cross-entropy (classification) and
// mean-squared-error (regression) losses, with weight masking to support
// fine-grained pruning, FLOPs accounting, and JSON serialization.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a fully connected layer: y = W·x + b. W is stored row-major as
// W[o*In+i]. An optional Mask with the same shape as W freezes pruned
// weights at zero: masked weights neither contribute to the forward pass
// nor receive updates.
type Dense struct {
	In, Out int
	W       []float64
	B       []float64
	// Mask is nil for dense layers; otherwise 0/1 per weight.
	Mask []float64

	// Gradients, populated by Backward.
	GradW []float64
	GradB []float64
}

// NewDense creates a layer with He-uniform initialization (suited to the
// ReLU activations used throughout).
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In:    in,
		Out:   out,
		W:     make([]float64, in*out),
		B:     make([]float64, out),
		GradW: make([]float64, in*out),
		GradB: make([]float64, out),
	}
	limit := math.Sqrt(6.0 / float64(in))
	for i := range d.W {
		d.W[i] = (rng.Float64()*2 - 1) * limit
	}
	return d
}

// Forward computes y = W·x + b into a fresh slice.
func (d *Dense) Forward(x []float64) []float64 {
	y := make([]float64, d.Out)
	d.ForwardInto(x, y)
	return y
}

// ForwardInto computes y = W·x + b into the provided slice.
func (d *Dense) ForwardInto(x, y []float64) {
	if len(x) != d.In || len(y) != d.Out {
		panic(fmt.Sprintf("nn: Dense %dx%d forward with |x|=%d |y|=%d", d.In, d.Out, len(x), len(y)))
	}
	for o := 0; o < d.Out; o++ {
		sum := d.B[o]
		row := d.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		y[o] = sum
	}
}

// Backward accumulates the gradients of W and B given the layer input x
// and the upstream gradient dy, and writes the gradient with respect to x
// into dx (length In). A nil dx is not computed: the network input needs
// none. Call ZeroGrad before each minibatch.
func (d *Dense) Backward(x, dy, dx []float64) {
	in := d.In
	x = x[:in]
	clear(dx)
	for o, g := range dy[:d.Out] {
		// A zero upstream gradient (the unit's ReLU was off) would add only
		// signed zeros, and those leave every sum here as it is: each starts
		// at +0, and a sum of finite terms that starts at +0 is never -0.
		if g == 0 {
			continue
		}
		d.GradB[o] += g
		grow := d.GradW[o*in:][:in]
		for i, xi := range x {
			grow[i] += g * xi
		}
		if dx != nil {
			dx := dx[:in]
			for i, w := range d.W[o*in:][:in] {
				dx[i] += w * g
			}
		}
	}
}

// ZeroGrad clears accumulated gradients.
func (d *Dense) ZeroGrad() {
	for i := range d.GradW {
		d.GradW[i] = 0
	}
	for i := range d.GradB {
		d.GradB[i] = 0
	}
}

// ApplyMask zeroes masked weights (and their gradients). A nil mask is a
// no-op. Called after every optimizer step while pruning is in force.
func (d *Dense) ApplyMask() {
	if d.Mask == nil {
		return
	}
	for i, m := range d.Mask {
		if m == 0 {
			d.W[i] = 0
			d.GradW[i] = 0
		}
	}
}

// SetMask installs a pruning mask (must match the weight shape) and
// immediately applies it.
func (d *Dense) SetMask(mask []float64) error {
	if len(mask) != len(d.W) {
		return fmt.Errorf("nn: mask size %d does not match weights %d", len(mask), len(d.W))
	}
	d.Mask = mask
	d.ApplyMask()
	return nil
}

// Params returns the number of parameters (weights + biases).
func (d *Dense) Params() int { return len(d.W) + len(d.B) }

// NonzeroWeights counts weights that survive the mask.
func (d *Dense) NonzeroWeights() int {
	n := 0
	for i, w := range d.W {
		if w != 0 && (d.Mask == nil || d.Mask[i] != 0) {
			n++
		}
	}
	return n
}

// FLOPs returns the dense cost of the layer: one multiply-accumulate (2
// FLOPs) per weight.
func (d *Dense) FLOPs() int { return 2 * d.In * d.Out }

// EffectiveFLOPs returns the cost counting only surviving weights, the
// number a sparse inference engine would execute.
func (d *Dense) EffectiveFLOPs() int { return 2 * d.NonzeroWeights() }

// Clone deep-copies the layer.
func (d *Dense) Clone() *Dense {
	cp := &Dense{
		In:    d.In,
		Out:   d.Out,
		W:     append([]float64(nil), d.W...),
		B:     append([]float64(nil), d.B...),
		GradW: make([]float64, len(d.W)),
		GradB: make([]float64, len(d.B)),
	}
	if d.Mask != nil {
		cp.Mask = append([]float64(nil), d.Mask...)
	}
	return cp
}
