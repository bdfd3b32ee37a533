// Package compress implements the paper's Section IV model-compression
// pipeline: a layer-wise architecture sweep that trades FLOPs against
// accuracy/MAPE (Fig. 3's layer-wise curve), and two-stage pruning —
// fine-grained magnitude pruning of a fraction x₁ of the smallest
// weights, followed by neuron-level pruning that removes hidden neurons
// whose incoming weight vectors are at least x₂ zero (Fig. 3's pruning
// curve and the final Table II model).
package compress

import (
	"fmt"
	"math"
	"sort"

	"ssmdvfs/internal/nn"
)

// MagnitudePrune zeroes the fraction frac of smallest-magnitude weights
// across all layers of the network (a single global threshold, as in
// classic fine-grained pruning) by installing masks. Biases are kept.
func MagnitudePrune(m *nn.MLP, frac float64) error {
	if frac < 0 || frac > 1 {
		return fmt.Errorf("compress: prune fraction %g out of [0,1]", frac)
	}
	if frac == 0 {
		return nil
	}
	var mags []float64
	for _, l := range m.Layers {
		for _, w := range l.W {
			mags = append(mags, math.Abs(w))
		}
	}
	sort.Float64s(mags)
	k := int(frac * float64(len(mags)))
	if k >= len(mags) {
		k = len(mags) - 1
	}
	threshold := mags[k]
	for _, l := range m.Layers {
		mask := make([]float64, len(l.W))
		for i, w := range l.W {
			if math.Abs(w) > threshold {
				mask[i] = 1
			}
		}
		if err := l.SetMask(mask); err != nil {
			return err
		}
	}
	return nil
}

// NeuronPrune removes hidden neurons whose incoming weight vector is at
// least zeroFrac zero-valued (after magnitude pruning), rebuilding the
// network with smaller layers: removing neuron j of layer L deletes row j
// of layer L and column j of layer L+1. Input and output dimensions are
// preserved, and each hidden layer keeps at least one neuron. It returns
// the pruned network.
func NeuronPrune(m *nn.MLP, zeroFrac float64) (*nn.MLP, error) {
	if zeroFrac < 0 || zeroFrac > 1 {
		return nil, fmt.Errorf("compress: neuron zero fraction %g out of [0,1]", zeroFrac)
	}
	cur := m.Clone()
	// Walk hidden layers: the output neurons of layer i (for every layer
	// except the last) are candidates.
	for li := 0; li+1 < len(cur.Layers); li++ {
		l := cur.Layers[li]
		next := cur.Layers[li+1]

		keep := make([]int, 0, l.Out)
		for o := 0; o < l.Out; o++ {
			zeros := 0
			for i := 0; i < l.In; i++ {
				w := l.W[o*l.In+i]
				masked := l.Mask != nil && l.Mask[o*l.In+i] == 0
				if w == 0 || masked {
					zeros++
				}
			}
			if float64(zeros)/float64(l.In) < zeroFrac {
				keep = append(keep, o)
			}
		}
		if len(keep) == 0 {
			// Keep the neuron with the fewest zeros so the network stays
			// connected.
			best, bestZeros := 0, l.In+1
			for o := 0; o < l.Out; o++ {
				zeros := 0
				for i := 0; i < l.In; i++ {
					if l.W[o*l.In+i] == 0 {
						zeros++
					}
				}
				if zeros < bestZeros {
					best, bestZeros = o, zeros
				}
			}
			keep = []int{best}
		}
		if len(keep) == l.Out {
			continue
		}
		cur.Layers[li] = shrinkRows(l, keep)
		cur.Layers[li+1] = shrinkCols(next, keep)
	}
	return cur, nil
}

// shrinkRows keeps only the given output neurons of a layer.
func shrinkRows(l *nn.Dense, keep []int) *nn.Dense {
	out := &nn.Dense{
		In:    l.In,
		Out:   len(keep),
		W:     make([]float64, l.In*len(keep)),
		B:     make([]float64, len(keep)),
		GradW: make([]float64, l.In*len(keep)),
		GradB: make([]float64, len(keep)),
	}
	if l.Mask != nil {
		out.Mask = make([]float64, len(out.W))
	}
	for newO, o := range keep {
		copy(out.W[newO*l.In:(newO+1)*l.In], l.W[o*l.In:(o+1)*l.In])
		if l.Mask != nil {
			copy(out.Mask[newO*l.In:(newO+1)*l.In], l.Mask[o*l.In:(o+1)*l.In])
		}
		out.B[newO] = l.B[o]
	}
	return out
}

// shrinkCols keeps only the given input columns of a layer.
func shrinkCols(l *nn.Dense, keep []int) *nn.Dense {
	out := &nn.Dense{
		In:    len(keep),
		Out:   l.Out,
		W:     make([]float64, len(keep)*l.Out),
		B:     append([]float64(nil), l.B...),
		GradW: make([]float64, len(keep)*l.Out),
		GradB: make([]float64, l.Out),
	}
	if l.Mask != nil {
		out.Mask = make([]float64, len(out.W))
	}
	for o := 0; o < l.Out; o++ {
		for newI, i := range keep {
			out.W[o*len(keep)+newI] = l.W[o*l.In+i]
			if l.Mask != nil {
				out.Mask[o*len(keep)+newI] = l.Mask[o*l.In+i]
			}
		}
	}
	return out
}
