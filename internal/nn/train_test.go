package nn

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzTrainStepParity pins the vector training step to the scalar one,
// bit for bit: every layer's W, B, GradW and GradB, Adam's four moment
// arrays and the returned loss, after a few epochs of minibatches. Heads
// are classifiers or regressors 1–5 layers deep and 1–40 wide, minibatches
// hold 1–40 samples, and layers may carry a pruning mask. Weights include
// exact and signed zeros; inputs include ±0, subnormals and finite values
// large enough to overflow, so −0 and NaN reach both ReLUs, softmax
// underflows to exact-zero upstream gradients and Adam's moments reach
// ±Inf.
func FuzzTrainStepParity(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(19), uint8(19), uint8(19), uint8(32), uint8(79), false, false, uint8(0)) // PaperInitial's decision head
	f.Add(int64(2), uint8(3), uint8(6), uint8(19), uint8(19), uint8(19), uint8(32), uint8(70), true, false, uint8(0))  // and its calibrator
	f.Add(int64(3), uint8(2), uint8(5), uint8(11), uint8(11), uint8(0), uint8(32), uint8(64), false, true, uint8(0))   // PaperCompressed, pruned
	f.Add(int64(4), uint8(1), uint8(6), uint8(11), uint8(0), uint8(0), uint8(32), uint8(50), true, true, uint8(0))     // and its calibrator
	f.Add(int64(5), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), true, false, uint8(0))       // 1→1, one sample
	f.Add(int64(6), uint8(3), uint8(2), uint8(16), uint8(3), uint8(39), uint8(7), uint8(41), false, true, uint8(1))    // ±0 and subnormal inputs
	f.Add(int64(7), uint8(3), uint8(17), uint8(4), uint8(33), uint8(8), uint8(39), uint8(79), true, false, uint8(2))   // overflowing inputs
	f.Add(int64(8), uint8(2), uint8(39), uint8(39), uint8(38), uint8(5), uint8(3), uint8(29), false, false, uint8(2))  // overflowing inputs
	f.Add(int64(9), uint8(4), uint8(10), uint8(15), uint8(2), uint8(9), uint8(15), uint8(60), false, true, uint8(3))   // a little of each
	f.Add(int64(30), uint8(9), uint8(5), uint8(39), uint8(38), uint8(0), uint8(3), uint8(29), true, false, uint8(2))   // zero gradients meet overflowed activations
	f.Add(int64(90), uint8(0), uint8(14), uint8(16), uint8(3), uint8(58), uint8(7), uint8(95), true, true, uint8(57))  // 15 inputs: three vectors, three columns, no dx
	f.Fuzz(func(t *testing.T, seed int64, depth, w0, w1, w2, w3, batch, rows uint8, regress, masked bool, inputs uint8) {
		if !hasAVX2() {
			t.Skip("no vector training step on this CPU")
		}
		sizes := []int{1 + int(w0)%40, 1 + int(w1)%40, 1 + int(w2)%40, 1 + int(w3)%40, 1 + int(w3)%40, 0}[:2+int(depth)%5]
		rng := rand.New(rand.NewSource(seed))
		if regress {
			sizes[len(sizes)-1] = 1
		} else {
			sizes[len(sizes)-1] = 1 + rng.Intn(8)
		}
		base, err := NewMLP(sizes, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range base.Layers {
			for i := range l.W {
				l.W[i] = fuzzParam(rng, l.W[i])
			}
			for i := range l.B {
				l.B[i] = fuzzParam(rng, 0.1*rng.NormFloat64())
			}
			if masked && rng.Intn(3) > 0 {
				mask := make([]float64, len(l.W))
				for i := range mask {
					mask[i] = float64(rng.Intn(2))
				}
				if err := l.SetMask(mask); err != nil {
					t.Fatal(err)
				}
			}
		}
		n := 1 + int(rows)%80
		cset := ClassificationSet{X: make([][]float64, n), Labels: make([]int, n)}
		rset := RegressionSet{X: cset.X, Y: make([]float64, n)}
		for r := range cset.X {
			x := make([]float64, sizes[0])
			for i := range x {
				x[i] = trainInput(rng, inputs%4)
			}
			cset.X[r] = x
			cset.Labels[r] = rng.Intn(sizes[len(sizes)-1])
			rset.Y[r] = trainInput(rng, inputs%4)
		}

		type run struct {
			m    *MLP
			opt  *Adam
			loss float64
		}
		train := func(vector bool) run {
			useKernel(t, vector)
			r := run{m: base.Clone(), opt: NewAdam(0.01)}
			cfg := TrainConfig{Epochs: 3, BatchSize: 1 + int(batch)%40, Optimizer: r.opt, Seed: seed}
			var err error
			if regress {
				r.loss, err = TrainRegressor(r.m, rset, cfg)
			} else {
				r.loss, err = TrainClassifier(r.m, cset, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		want, got := train(false), train(true)
		if !sameBits(got.loss, want.loss) {
			t.Fatalf("sizes %v: loss %g (%#x), scalar %g (%#x)", sizes, got.loss, math.Float64bits(got.loss), want.loss, math.Float64bits(want.loss))
		}
		for li := range want.m.Layers {
			g, w := got.m.Layers[li], want.m.Layers[li]
			for _, c := range []struct {
				what      string
				got, want []float64
			}{
				{"W", g.W, w.W}, {"B", g.B, w.B}, {"GradW", g.GradW, w.GradW}, {"GradB", g.GradB, w.GradB},
				{"Adam m(W)", got.opt.mw[li], want.opt.mw[li]}, {"Adam v(W)", got.opt.vw[li], want.opt.vw[li]},
				{"Adam m(B)", got.opt.mb[li], want.opt.mb[li]}, {"Adam v(B)", got.opt.vb[li], want.opt.vb[li]},
			} {
				for i := range c.want {
					if !sameBits(c.got[i], c.want[i]) {
						t.Fatalf("sizes %v batch %d: layer %d %s[%d] is %g (%#x), scalar %g (%#x)",
							sizes, 1+int(batch)%40, li, c.what, i, c.got[i], math.Float64bits(c.got[i]), c.want[i], math.Float64bits(c.want[i]))
					}
				}
			}
		}
	})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// trainInput draws a training input or target of one of four kinds:
// normal values; normal values, ±0 and subnormals; fuzzInput's mix, which
// overflows; or a little of each.
func trainInput(rng *rand.Rand, kind uint8) float64 {
	switch kind {
	case 1:
		if rng.Intn(3) == 0 {
			sign := float64(1 - 2*rng.Intn(2))
			if rng.Intn(2) == 0 {
				return math.Copysign(0, sign)
			}
			return sign * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
		}
	case 2:
		return fuzzInput(rng)
	case 3:
		if rng.Intn(64) == 0 {
			return fuzzInput(rng)
		}
	}
	return rng.NormFloat64()
}
