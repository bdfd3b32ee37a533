package infer

import (
	"math"
	"math/rand"
	"testing"
	_ "unsafe" // go:linkname

	"ssmdvfs/internal/nn"
)

// vectorTile is internal/nn's batch-kernel selection, reached here so the
// fuzz target can run the scalar tile too. It starts true exactly when
// the CPU runs the vector tile.
//
//go:linkname vectorTile ssmdvfs/internal/nn.vectorTile
var vectorTile bool

// refLayer is a layer as the int32 reference kernel holds it: the int8
// codes themselves, row-major, with quantizeLayer's scales and the
// float64 bias.
type refLayer struct {
	in, out int
	qw      []int8
	sw, b   []float64
}

// refInt8Forward is the int8 backend's forward as it was before its
// multiply-accumulate moved onto nn's kernel: per-row quantization with
// the same rounding, an int32 accumulator tiled four rows at a time with
// a row-at-a-time tail, and the fused dequantize, ReLU and row max.
func refInt8Forward(t *testing.T, m *nn.MLP, x *nn.Batch) *nn.Batch {
	t.Helper()
	layers := make([]refLayer, len(m.Layers))
	for li, l := range m.Layers {
		codes, sw, err := quantizeLayer(l, li, 8)
		if err != nil {
			t.Fatal(err)
		}
		qw := make([]int8, len(codes))
		for i, c := range codes {
			qw[i] = int8(c)
		}
		layers[li] = refLayer{in: l.In, out: l.Out, qw: qw, sw: sw, b: l.B}
	}
	hmax := make([]float64, x.Rows)
	h := x
	for li := range layers {
		y := &nn.Batch{}
		y.Reset(x.Rows, layers[li].out)
		refLayerForward(&layers[li], h, y, hmax, li+1 < len(layers), li > 0)
		h = y
	}
	return h
}

func refLayerForward(l *refLayer, x, y *nn.Batch, hmax []float64, fuseReLU, haveMax bool) {
	in, out, rows := l.in, l.out, x.Rows
	qx := make([]int8, rows*in)
	sx := make([]float64, rows)
	for r := 0; r < rows; r++ {
		xr := x.Data[r*in : (r+1)*in]
		qr := qx[r*in : (r+1)*in]
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
		if !(maxAbs > 0) || math.IsInf(maxAbs, 0) {
			continue
		}
		sx[r] = maxAbs / qlevels
		inv := qlevels / maxAbs
		for i, v := range xr {
			qr[i] = int8(int32(v*inv + math.Copysign(0.5, v)))
		}
	}

	// epilogue dequantizes one accumulator, with ReLU and the row max.
	epilogue := func(acc int32, o int, sr float64, mr *float64) float64 {
		v := float64(acc)*(l.sw[o]*sr) + l.b[o]
		if fuseReLU {
			if v < 0 {
				v = 0
			}
			if v > *mr {
				*mr = v
			}
		}
		return v
	}
	w := l.qw
	r := 0
	for ; r+4 <= rows; r += 4 {
		q0, q1, q2, q3 := qx[(r+0)*in:], qx[(r+1)*in:], qx[(r+2)*in:], qx[(r+3)*in:]
		var m0, m1, m2, m3 float64
		for o := 0; o < out; o++ {
			wo := w[o*in : (o+1)*in]
			var a0, a1, a2, a3 int32
			for i := 0; i < in; i++ {
				wv := int32(wo[i])
				a0 += wv * int32(q0[i])
				a1 += wv * int32(q1[i])
				a2 += wv * int32(q2[i])
				a3 += wv * int32(q3[i])
			}
			y.Data[(r+0)*out+o] = epilogue(a0, o, sx[r+0], &m0)
			y.Data[(r+1)*out+o] = epilogue(a1, o, sx[r+1], &m1)
			y.Data[(r+2)*out+o] = epilogue(a2, o, sx[r+2], &m2)
			y.Data[(r+3)*out+o] = epilogue(a3, o, sx[r+3], &m3)
		}
		if fuseReLU {
			hmax[r+0], hmax[r+1], hmax[r+2], hmax[r+3] = m0, m1, m2, m3
		}
	}
	for ; r < rows; r++ {
		qr := qx[r*in : (r+1)*in]
		var mr float64
		for o := 0; o < out; o++ {
			var acc int32
			for i, wv := range w[o*in : (o+1)*in] {
				acc += int32(wv) * int32(qr[i])
			}
			y.Data[r*out+o] = epilogue(acc, o, sx[r], &mr)
		}
		if fuseReLU {
			hmax[r] = mr
		}
	}
}

// FuzzInt8Parity pins the int8 backend's ForwardBatch and Forward, on
// each batch kernel the CPU runs, to the int32 reference kernel, bit for
// bit, on networks of 1–5 layers 1–40
// wide and batches of 1–70 rows, so full 4-row tiles and a short tail
// both run. Weights include signed zeros, pruned channels and values far
// enough from 1 that a dequantize factor can overflow; biases include
// ±0; inputs include ±0, subnormals, ±1e300, all-zero rows and
// non-finite values.
func FuzzInt8Parity(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(2), uint64(0x0b0b05))
	f.Add(int64(2), uint8(61), uint8(1), uint64(0x130600))
	f.Add(int64(3), uint8(3), uint8(4), uint64(0x27010217))
	f.Add(int64(4), uint8(70), uint8(3), uint64(0x0d1700))
	f.Add(int64(5), uint8(1), uint8(0), uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, rows, depth uint8, widths uint64) {
		sizes := make([]int, 2+int(depth)%5)
		for i := range sizes {
			sizes[i] = 1 + int(widths>>(8*i)&0xff)%40
		}
		rng := rand.New(rand.NewSource(seed))
		m, err := nn.NewMLP(sizes, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range m.Layers {
			scale := math.Pow(10, float64(rng.Intn(13)-4))
			for o := 0; o < l.Out; o++ {
				pruned := rng.Intn(8) == 0
				for i := o * l.In; i < (o+1)*l.In; i++ {
					switch {
					case pruned:
						l.W[i] = 0
					case rng.Intn(8) == 0:
						l.W[i] = math.Copysign(0, float64(1-2*rng.Intn(2)))
					default:
						l.W[i] *= scale
					}
				}
				switch rng.Intn(4) {
				case 0:
					l.B[o] = math.Copysign(0, -1)
				case 1:
					l.B[o] = 0
				default:
					l.B[o] = rng.NormFloat64() * scale
				}
			}
		}
		b, err := New(m, KindInt8)
		if err != nil {
			t.Skip(err) // an all-zero layer: the backend refuses to build
		}
		var x nn.Batch
		x.Reset(1+int(rows)%70, sizes[0])
		for r := 0; r < x.Rows; r++ {
			xr := x.Row(r)
			switch rng.Intn(8) {
			case 0: // all zero
				continue
			case 1:
				xr[rng.Intn(len(xr))] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
			}
			for i := range xr {
				if xr[i] == 0 {
					xr[i] = int8FuzzInput(rng)
				}
			}
		}
		want := refInt8Forward(t, m, &x)
		kernels := []bool{false}
		if vectorTile {
			kernels = append(kernels, true)
		}
		defer func(v bool) { vectorTile = v }(vectorTile)
		for _, vector := range kernels {
			vectorTile = vector
			var s, rowS Scratch
			got := b.ForwardBatch(&x, &s)
			for r := 0; r < x.Rows; r++ {
				row := b.Forward(x.Row(r), &rowS)
				for k, v := range want.Row(r) {
					if g := got.Row(r)[k]; math.Float64bits(g) != math.Float64bits(v) {
						t.Fatalf("vector tile %v, sizes %v rows %d: ForwardBatch row %d out %d is %g (%#x), reference %g (%#x)",
							vector, sizes, x.Rows, r, k, g, math.Float64bits(g), v, math.Float64bits(v))
					}
					if g := row[k]; math.Float64bits(g) != math.Float64bits(v) {
						t.Fatalf("vector tile %v, sizes %v: Forward row %d out %d is %g (%#x), reference %g (%#x)",
							vector, sizes, r, k, g, math.Float64bits(g), v, math.Float64bits(v))
					}
				}
			}
		}
	})
}

// int8FuzzInput draws a finite input: mostly normal values, often ±0,
// subnormals and ±1e300.
func int8FuzzInput(rng *rand.Rand) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	case 2:
		return sign * 1e300
	}
	return rng.NormFloat64()
}
