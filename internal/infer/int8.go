package infer

import (
	"fmt"
	"math"
	"slices"

	"ssmdvfs/internal/nn"
)

// qlevels is the int8 backend's symmetric range: int8 minus the
// asymmetric -128, so +x and -x round to equal magnitudes.
const qlevels = 127

// qlayer is one dense layer quantized for serving: weights as int8 codes
// from quantizeLayer at 8 bits, biases kept in float64 and applied at
// dequantize time. The codes are the weights of mac, a one-layer MLP
// with a zero bias, so nn's batch kernel does the multiply-accumulate.
// Every code and activation code is an integer in [-128, 127], so every
// product and partial sum is an integer far below 2^53: the kernel's
// float64 sum is the exact integer accumulator, and +0 (never -0) where
// that is 0, since it starts from the +0 bias. An FMA cannot round an
// exact product either.
type qlayer struct {
	mac *nn.MLP
	sw  []float64 // per output channel; 0 for an all-zero (pruned) channel
	b   []float64
}

// int8Scratch holds the quantized path's buffers: the current layer's
// activation codes and per-row scales, and the kernel's scratch, whose
// output each layer dequantizes in place. hmax carries each row's max
// activation from one layer's fused-ReLU epilogue to the next layer's
// quantization pass, so hidden layers never rescan their input for the
// dynamic scale.
type int8Scratch struct {
	q    nn.Batch
	mac  nn.BatchScratch
	sx   []float64
	hmax []float64
}

type int8Backend struct {
	layers []qlayer
	desc   Description
}

// quantizeLayer is the package's one weight quantizer: it rounds layer
// li's weights onto a symmetric signed b-bit grid, |code| ≤ 2^(b-1)-1,
// with one scale per output channel, codes[o*in+i] ≈ W[o*in+i] /
// scales[o]. A per-layer scale would let one large weight anywhere
// coarsen every other channel's grid; on the uncompressed model that
// alone pushes int8 decision flips past 1%. A pruned (all-zero) channel
// gets scale 0 and zero codes, so its output is exactly its bias. A
// non-finite weight or bias (scale or output would be NaN/Inf) and a
// layer whose weights are all zero (every logit would quantize to its
// bias) fail with a quantize-stage *Error.
func quantizeLayer(l *nn.Dense, li, bits int) (codes, scales []float64, err error) {
	fail := func(format string, args ...any) ([]float64, []float64, error) {
		return nil, nil, &Error{Kind: Kind(fmt.Sprintf("int%d", bits)), Stage: "quantize", Layer: li,
			Err: fmt.Errorf(format, args...)}
	}
	for i, b := range l.B {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return fail("non-finite bias %v at index %d", b, i)
		}
	}
	levels := float64(int64(1)<<(bits-1) - 1)
	codes = make([]float64, len(l.W))
	scales = make([]float64, l.Out)
	layerMax := 0.0
	for o := range scales {
		wo := l.W[o*l.In : (o+1)*l.In]
		maxAbs := 0.0
		for i, w := range wo {
			// NaN loses every > comparison, so it must be caught here
			// explicitly or it would silently quantize to garbage.
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return fail("non-finite weight %v at index %d", w, o*l.In+i)
			}
			maxAbs = max(maxAbs, math.Abs(w))
		}
		layerMax = max(layerMax, maxAbs)
		if maxAbs == 0 {
			continue
		}
		sw := maxAbs / levels
		scales[o] = sw
		for i, w := range wo {
			codes[o*l.In+i] = max(-levels, min(levels, math.Round(w/sw)))
		}
	}
	if layerMax == 0 {
		return fail("all-zero weights: scale would be 0 and every logit would quantize to 0")
	}
	return codes, scales, nil
}

// Quantize returns a copy of m fake-quantized at the given width: every
// weight is rounded by quantizeLayer and dequantized, and biases stay in
// float64 as the int8 backend keeps them. Run through the float64 path,
// the copy shows what the weight grid alone costs in accuracy; activation
// quantization is the int8 backend's and is not modelled. bits must be in
// [2, 31].
func Quantize(m *nn.MLP, bits int) (*nn.MLP, error) {
	if bits < 2 || bits > 31 {
		return nil, &Error{Kind: Kind(fmt.Sprintf("int%d", bits)), Stage: "quantize", Layer: -1,
			Err: fmt.Errorf("bits must be in [2,31], got %d", bits)}
	}
	q := m.Clone()
	for li, l := range q.Layers {
		codes, sw, err := quantizeLayer(l, li, bits)
		if err != nil {
			return nil, err
		}
		for i, c := range codes {
			l.W[i] = c * sw[i/l.In]
		}
	}
	return q, nil
}

// newInt8Backend quantizes m layer by layer at 8 bits.
func newInt8Backend(m *nn.MLP) (Backend, error) {
	bk := &int8Backend{desc: Description{Kind: KindInt8, In: m.InputSize(), Out: m.OutputSize(),
		Layers: len(m.Layers), Params: m.Params(), WeightBits: 8}}
	for li, l := range m.Layers {
		codes, sw, err := quantizeLayer(l, li, 8)
		if err != nil {
			return nil, err
		}
		mac := &nn.MLP{Layers: []*nn.Dense{{In: l.In, Out: l.Out, W: codes, B: make([]float64, l.Out)}}}
		bk.layers = append(bk.layers, qlayer{mac: mac, sw: sw, b: slices.Clone(l.B)})
	}
	return bk, nil
}

func (b *int8Backend) Describe() Description { return b.desc }

func (b *int8Backend) Forward(x []float64, s *Scratch) []float64 {
	return forwardRow(b, x, s)
}

func (b *int8Backend) ForwardBatch(x *nn.Batch, s *Scratch) *nn.Batch {
	if x.Cols != b.desc.In {
		panic(fmt.Sprintf("infer: int8 ForwardBatch with %d cols, model wants %d", x.Cols, b.desc.In))
	}
	h := x
	for li := range b.layers {
		// Hidden layers (everything but the last) fuse ReLU and record
		// each row's output max, so the next layer's quantization pass
		// reads its dynamic scale from hmax instead of rescanning.
		h = b.layers[li].forwardBatch(h, &s.i8, li+1 < len(b.layers), li > 0)
	}
	return h
}

// forwardBatch quantizes every activation row with its own dynamic scale
// (sx = max|x| / 127), multiplies the codes on nn's batch kernel, and
// dequantizes the exact integer accumulators with the fused
// per-(channel,row) factor sw[o]·sx[r] plus the float64 bias, applying
// ReLU in the same pass when fuseReLU is set. haveMax means sc.hmax
// already holds each row's max |x| (filled by the previous layer's
// fused-ReLU epilogue), skipping the scan. When fuseReLU is set
// the epilogue refills sc.hmax with this layer's output maxes for the
// next one. The result aliases sc.mac: x is read in full before the kernel
// writes there, so the next layer may pass it back in.
func (l *qlayer) forwardBatch(x *nn.Batch, sc *int8Scratch, fuseReLU, haveMax bool) *nn.Batch {
	in, out, rows := x.Cols, len(l.sw), x.Rows
	sc.q.Reset(rows, in)
	// Growing keeps hmax's rows: every layer of a batch has the same rows.
	sc.sx, sc.hmax = slices.Grow(sc.sx[:0], rows)[:rows], slices.Grow(sc.hmax[:0], rows)[:rows]
	sx, hmax := sc.sx, sc.hmax

	// Pass 1: per-row dynamic activation quantization. No clamp is
	// needed on the quantized codes: |v| ≤ maxAbs makes |v·inv| at most
	// 127 plus a couple of ulps, far below the 127.5 where the
	// round-half-away would reach ±128.
	for r := 0; r < rows; r++ {
		xr := x.Data[r*in : (r+1)*in : (r+1)*in]
		qr := sc.q.Data[r*in : (r+1)*in : (r+1)*in]
		maxAbs := 0.0
		if haveMax {
			maxAbs = hmax[r]
		} else {
			for _, v := range xr {
				if a := math.Abs(v); a > maxAbs {
					maxAbs = a
				}
			}
		}
		// An all-zero row (or a non-finite one — upstream validation
		// rejects those before inference) contributes nothing to the
		// accumulator; sx=0 makes the dequantized output exactly the
		// bias, which matches the float64 path on a zero row.
		if !(maxAbs > 0) || math.IsInf(maxAbs, 0) {
			sx[r] = 0
			clear(qr)
			continue
		}
		sx[r] = maxAbs / qlevels
		inv := qlevels / maxAbs
		for i, v := range xr {
			// Truncation after ±0.5 is round-half-away-from-zero — the
			// same rounding math.Round implements, minus its pure-Go
			// bit-twiddling cost on the hot path.
			qr[i] = float64(int8(int32(v*inv + math.Copysign(0.5, v))))
		}
	}

	// Pass 2: the integer multiply-accumulate.
	y := l.mac.ForwardBatch(&sc.q, &sc.mac)

	// Pass 3: dequantize(+ReLU) in place and, for hidden layers, track
	// the next layer's row max (post-ReLU outputs are nonnegative, so the
	// running max is already max |y|).
	sws := l.sw[:out]
	bias := l.b[:out]
	for r := 0; r < rows; r++ {
		yr := y.Data[r*out : (r+1)*out : (r+1)*out][:out]
		sr := sx[r]
		var mr float64
		for o, acc := range yr {
			v := acc*(sws[o]*sr) + bias[o]
			if fuseReLU {
				if v < 0 {
					v = 0
				}
				if v > mr {
					mr = v
				}
			}
			yr[o] = v
		}
		if fuseReLU {
			hmax[r] = mr
		}
	}
	return y
}
