package infer

import (
	"fmt"
	"math"
	"slices"

	"ssmdvfs/internal/nn"
)

// qlevels is the int8 backend's symmetric range: int8 minus the
// asymmetric -128, so +x and -x round to equal magnitudes and the
// accumulator bound (127*127*in) stays far inside int32 for any realistic
// layer width.
const qlevels = 127

// qlayer is one dense layer quantized for serving: weights as int8 codes
// from quantizeLayer at 8 bits, biases kept in float64 and applied at
// dequantize time.
type qlayer struct {
	in, out int
	qw      []int8    // row-major, qw[o*in+i] ≈ W[o*in+i] / sw[o]
	sw      []float64 // per output channel; 0 for an all-zero (pruned) channel
	b       []float64
}

// int8Scratch holds the quantized-path buffers: per-layer float64
// activation batches plus the current layer's quantized rows and per-row
// scales. hmax carries each row's max activation from one layer's
// fused-ReLU epilogue to the next layer's quantization pass, so hidden
// layers never rescan their input for the dynamic scale.
type int8Scratch struct {
	acts []nn.Batch
	one  nn.Batch // 1-row staging for the single-row Forward
	qx   []int8
	sx   []float64
	hmax []float64
}

type int8Backend struct {
	layers []qlayer
	in     int
	out    int
	params int
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
	bk := &int8Backend{
		in:     m.InputSize(),
		out:    m.OutputSize(),
		params: m.Params(),
	}
	for li, l := range m.Layers {
		codes, sw, err := quantizeLayer(l, li, 8)
		if err != nil {
			return nil, err
		}
		qw := make([]int8, len(codes))
		for i, c := range codes {
			qw[i] = int8(c)
		}
		bk.layers = append(bk.layers, qlayer{in: l.In, out: l.Out, qw: qw, sw: sw, b: slices.Clone(l.B)})
	}
	return bk, nil
}

func (b *int8Backend) Describe() Description {
	return Description{
		Kind:       KindInt8,
		In:         b.in,
		Out:        b.out,
		Layers:     len(b.layers),
		Params:     b.params,
		WeightBits: 8,
	}
}

// Forward runs the single row through the batch kernel via a 1-row
// staging batch: one kernel, one set of numerics, so the row and batch
// paths cannot drift apart.
func (b *int8Backend) Forward(x []float64, s *Scratch) []float64 {
	if len(x) != b.in {
		panic(fmt.Sprintf("infer: int8 Forward with |x|=%d, model wants %d", len(x), b.in))
	}
	s.i8.one.Reset(1, b.in)
	copy(s.i8.one.Data, x)
	return b.ForwardBatch(&s.i8.one, s).Row(0)
}

func (b *int8Backend) ForwardBatch(x *nn.Batch, s *Scratch) *nn.Batch {
	if x.Cols != b.in {
		panic(fmt.Sprintf("infer: int8 ForwardBatch with %d cols, model wants %d", x.Cols, b.in))
	}
	sc := &s.i8
	if len(sc.acts) < len(b.layers) {
		sc.acts = append(sc.acts, make([]nn.Batch, len(b.layers)-len(sc.acts))...)
	}
	h := x
	for li := range b.layers {
		l := &b.layers[li]
		y := &sc.acts[li]
		y.Reset(h.Rows, l.out)
		// Hidden layers (everything but the last) fuse ReLU and record
		// each row's output max, so the next layer's quantization pass
		// reads its dynamic scale from hmax instead of rescanning.
		l.forwardBatch(h, y, sc, li+1 < len(b.layers), li > 0)
		h = y
	}
	return h
}

// forwardBatch quantizes every activation row with its own dynamic scale
// (sx = max|x| / 127), accumulates int8×int8 products in int32, and
// dequantizes with the fused per-(channel,row) factor sw[o]·sx[r] plus
// the float64 bias — applying ReLU in the same pass when fuseReLU is
// set. The row loop is tiled four at a time like the float64 kernel so
// each quantized weight row is loaded once per tile. haveMax means
// sc.hmax already holds each row's max |x| (filled by the previous
// layer's fused-ReLU epilogue), skipping the scan; when fuseReLU is set
// the epilogue refills sc.hmax with this layer's output maxes for the
// next one.
func (l *qlayer) forwardBatch(x, y *nn.Batch, sc *int8Scratch, fuseReLU, haveMax bool) {
	in, out, rows := l.in, l.out, x.Rows
	if n := rows * in; cap(sc.qx) < n {
		sc.qx = make([]int8, n)
	}
	if cap(sc.sx) < rows {
		sc.sx = make([]float64, rows)
		sc.hmax = make([]float64, rows)
	}
	qx := sc.qx[:rows*in]
	sx := sc.sx[:rows]
	hmax := sc.hmax[:rows]

	// Pass 1: per-row dynamic activation quantization. No clamp is
	// needed on the quantized codes: |v| ≤ maxAbs makes |v·inv| at most
	// 127 plus a couple of ulps, far below the 127.5 where the
	// round-half-away would reach ±128.
	for r := 0; r < rows; r++ {
		xr := x.Data[r*in : (r+1)*in : (r+1)*in]
		qr := qx[r*in : (r+1)*in : (r+1)*in]
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
			for i := range qr {
				qr[i] = 0
			}
			continue
		}
		sx[r] = maxAbs / qlevels
		inv := qlevels / maxAbs
		for i, v := range xr {
			// Truncation after ±0.5 is round-half-away-from-zero — the
			// same rounding math.Round implements, minus its pure-Go
			// bit-twiddling cost on the hot path.
			qr[i] = int8(int32(v*inv + math.Copysign(0.5, v)))
		}
	}

	// Pass 2: tiled int32 matmul with fused dequantize(+ReLU) and, for
	// hidden layers, fused next-layer row-max tracking (post-ReLU
	// outputs are nonnegative, so the running max is already max |y|).
	// The [:in] reslices pin every operand's length to the loop bound so
	// the compiler drops the per-element bounds checks in the MAC loop.
	w := l.qw[:out*in]
	sws := l.sw[:out]
	bias := l.b[:out]
	r := 0
	for ; r+4 <= rows; r += 4 {
		q0 := qx[(r+0)*in : (r+1)*in : (r+1)*in][:in]
		q1 := qx[(r+1)*in : (r+2)*in : (r+2)*in][:in]
		q2 := qx[(r+2)*in : (r+3)*in : (r+3)*in][:in]
		q3 := qx[(r+3)*in : (r+4)*in : (r+4)*in][:in]
		y0 := y.Data[(r+0)*out : (r+1)*out : (r+1)*out]
		y1 := y.Data[(r+1)*out : (r+2)*out : (r+2)*out]
		y2 := y.Data[(r+2)*out : (r+3)*out : (r+3)*out]
		y3 := y.Data[(r+3)*out : (r+4)*out : (r+4)*out]
		s0, s1, s2, s3 := sx[r+0], sx[r+1], sx[r+2], sx[r+3]
		var m0, m1, m2, m3 float64
		for o := 0; o < out; o++ {
			wo := w[o*in : o*in+in : o*in+in][:in]
			var a0, a1, a2, a3 int32
			for i := 0; i < in; i++ {
				wv := int32(wo[i])
				a0 += wv * int32(q0[i])
				a1 += wv * int32(q1[i])
				a2 += wv * int32(q2[i])
				a3 += wv * int32(q3[i])
			}
			swo, b := sws[o], bias[o]
			v0 := float64(a0)*(swo*s0) + b
			v1 := float64(a1)*(swo*s1) + b
			v2 := float64(a2)*(swo*s2) + b
			v3 := float64(a3)*(swo*s3) + b
			if fuseReLU {
				if v0 < 0 {
					v0 = 0
				}
				if v1 < 0 {
					v1 = 0
				}
				if v2 < 0 {
					v2 = 0
				}
				if v3 < 0 {
					v3 = 0
				}
				if v0 > m0 {
					m0 = v0
				}
				if v1 > m1 {
					m1 = v1
				}
				if v2 > m2 {
					m2 = v2
				}
				if v3 > m3 {
					m3 = v3
				}
			}
			y0[o], y1[o], y2[o], y3[o] = v0, v1, v2, v3
		}
		if fuseReLU {
			hmax[r+0], hmax[r+1], hmax[r+2], hmax[r+3] = m0, m1, m2, m3
		}
	}
	for ; r < rows; r++ {
		qr := qx[r*in : (r+1)*in : (r+1)*in][:in]
		yr := y.Data[r*out : (r+1)*out : (r+1)*out]
		sr := sx[r]
		var mr float64
		for o := 0; o < out; o++ {
			wo := w[o*in : o*in+in : o*in+in][:in]
			var acc int32
			for i := 0; i < in; i++ {
				acc += int32(wo[i]) * int32(qr[i])
			}
			v := float64(acc)*(sws[o]*sr) + bias[o]
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
}
