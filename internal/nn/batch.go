package nn

import "fmt"

// vectorTile selects the AVX2 tile (denseTile) for ForwardBatch, and so
// for the training step's forward pass, and the AVX2 backward and Adam
// kernels (trainBackward, adamStep). It is set once, from CPUID and
// XGETBV, before any caller can run; only tests change it, to force the
// scalar references, forwardBatchInto and the scalar step.
var vectorTile = hasAVX2()

// Batch is a row-major block of input or activation rows: row r occupies
// Data[r*Cols : (r+1)*Cols]. Batches are plain buffers — they carry no
// synchronization and belong to one goroutine at a time.
type Batch struct {
	Rows, Cols int
	Data       []float64
}

// Reset shapes the batch to rows×cols, reusing the backing array when it
// is large enough. Contents after Reset are unspecified; callers fill
// every row before reading.
func (b *Batch) Reset(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: Batch.Reset(%d, %d)", rows, cols))
	}
	n := rows * cols
	if cap(b.Data) < n {
		b.Data = make([]float64, n)
	}
	b.Data = b.Data[:n]
	b.Rows, b.Cols = rows, cols
}

// Row returns row r, aliasing the batch's backing array.
func (b *Batch) Row(r int) []float64 {
	return b.Data[r*b.Cols : (r+1)*b.Cols : (r+1)*b.Cols]
}

// BatchScratch holds ForwardBatch's activations so steady-state
// inference allocates nothing. A BatchScratch belongs to one goroutine
// at a time (pool one per worker); the MLP stays read-only and may be
// shared.
type BatchScratch struct {
	bufs []Batch   // per-layer outputs; the vector tile fills only the last unless it keeps them all
	tile []float64 // the vector tile's two feature-major activations
}

// ForwardBatch runs inference over every row of x at once, returning the
// final linear outputs as a Rows×OutputSize batch. The returned batch
// aliases s and is valid until the next ForwardBatch call with the same
// BatchScratch. Row order is preserved: output row r corresponds to input
// row r, and each row equals what Forward would produce for it, bit for
// bit. It is the one inference kernel: a single row runs as a one-row
// batch.
func (m *MLP) ForwardBatch(x *Batch, s *BatchScratch) *Batch {
	return m.forwardBatch(x, s, false)
}

// forwardBatch is ForwardBatch that, with keep set, also leaves every
// layer's output in s.bufs, hidden layers after their ReLU: the training
// step's forward pass, which backward reads. The scalar tile keeps them
// whether asked or not.
func (m *MLP) forwardBatch(x *Batch, s *BatchScratch, keep bool) *Batch {
	if x.Cols != m.Layers[0].In {
		panic(fmt.Sprintf("nn: ForwardBatch with %d cols, model wants %d", x.Cols, m.Layers[0].In))
	}
	if len(s.bufs) < len(m.Layers) {
		s.bufs = append(s.bufs, make([]Batch, len(m.Layers)-len(s.bufs))...)
	}
	if vectorTile {
		return m.forwardTiles(x, s, keep)
	}
	h := x
	for i, l := range m.Layers {
		y := &s.bufs[i]
		y.Reset(h.Rows, l.Out)
		l.forwardBatchInto(h, y, i+1 < len(m.Layers))
		h = y
	}
	return h
}

// forwardTiles is ForwardBatch on the vector tile. Each 4-row tile of x
// is transposed once into feature-major scratch, runs through every layer
// there with denseTile, and is transposed once back into the output
// batch, and with keep set each hidden layer's tile is transposed back
// into that layer's batch too. A short last tile is zero-padded, so every
// row takes the same path; lanes never mix, so the padding cannot reach a
// real row.
func (m *MLP) forwardTiles(x *Batch, s *BatchScratch, keep bool) *Batch {
	// denseTile reads and writes by these shapes unchecked, so a layer
	// that does not take what the one before gives must stop here.
	width := x.Cols
	for i, l := range m.Layers {
		if i > 0 && l.In != m.Layers[i-1].Out {
			panic(fmt.Sprintf("nn: layer %d takes %d inputs, layer %d gives %d", i, l.In, i-1, m.Layers[i-1].Out))
		}
		width = max(width, l.Out)
	}
	if cap(s.tile) < 8*width {
		s.tile = make([]float64, 8*width)
	}
	src, dst := s.tile[:4*width], s.tile[4*width:8*width]
	in, last := x.Cols, len(m.Layers)-1
	for i, l := range m.Layers {
		if keep || i == last {
			s.bufs[i].Reset(x.Rows, l.Out)
		}
	}
	for r := 0; r < x.Rows; r += 4 {
		n := min(4, x.Rows-r)
		t := src[:4*in]
		if n < 4 {
			clear(t)
		}
		for k := 0; k < n; k++ {
			for i, v := range x.Data[(r+k)*in : (r+k+1)*in] {
				t[i*4+k] = v
			}
		}
		h, next := src, dst
		for i, l := range m.Layers {
			w, b := l.W[:l.In*l.Out], l.B[:l.Out]
			denseTile(&w[0], &b[0], &h[0], &next[0], l.In, l.Out, i < last)
			h, next = next, h
			if keep || i == last {
				y := s.bufs[i].Data
				for k := 0; k < n; k++ {
					row := y[(r+k)*l.Out : (r+k+1)*l.Out]
					for o := range row {
						row[o] = h[o*4+k]
					}
				}
			}
		}
	}
	return &s.bufs[last]
}

// forwardBatchInto computes y = X·Wᵀ + b over every row of x, applying
// ReLU in the same pass when fuseReLU is set. The kernel is tiled four
// rows at a time so each weight row is loaded once per tile instead of
// once per input row, and every slice is re-sliced to its exact extent up
// front so the compiler hoists bounds checks out of the inner loops.
func (d *Dense) forwardBatchInto(x, y *Batch, fuseReLU bool) {
	in, out := d.In, d.Out
	if x.Cols != in || y.Cols != out || x.Rows != y.Rows {
		panic(fmt.Sprintf("nn: Dense %dx%d batch forward with x %dx%d y %dx%d",
			d.In, d.Out, x.Rows, x.Cols, y.Rows, y.Cols))
	}
	w := d.W[:out*in]
	b := d.B[:out]
	r := 0
	for ; r+4 <= x.Rows; r += 4 {
		x0 := x.Data[(r+0)*in : (r+1)*in : (r+1)*in]
		x1 := x.Data[(r+1)*in : (r+2)*in : (r+2)*in]
		x2 := x.Data[(r+2)*in : (r+3)*in : (r+3)*in]
		x3 := x.Data[(r+3)*in : (r+4)*in : (r+4)*in]
		y0 := y.Data[(r+0)*out : (r+1)*out : (r+1)*out]
		y1 := y.Data[(r+1)*out : (r+2)*out : (r+2)*out]
		y2 := y.Data[(r+2)*out : (r+3)*out : (r+3)*out]
		y3 := y.Data[(r+3)*out : (r+4)*out : (r+4)*out]
		for o := 0; o < out; o++ {
			wo := w[o*in : o*in+in : o*in+in]
			s0, s1, s2, s3 := b[o], b[o], b[o], b[o]
			for i, wi := range wo {
				s0 += wi * x0[i]
				s1 += wi * x1[i]
				s2 += wi * x2[i]
				s3 += wi * x3[i]
			}
			if fuseReLU {
				// Same comparison form as relu(), not max(): the builtin
				// normalizes -0.0 to +0.0, which would break bit-identical
				// parity with the row-at-a-time path.
				if s0 < 0 {
					s0 = 0
				}
				if s1 < 0 {
					s1 = 0
				}
				if s2 < 0 {
					s2 = 0
				}
				if s3 < 0 {
					s3 = 0
				}
			}
			y0[o], y1[o], y2[o], y3[o] = s0, s1, s2, s3
		}
	}
	for ; r < x.Rows; r++ {
		xr := x.Data[r*in : (r+1)*in : (r+1)*in]
		yr := y.Data[r*out : (r+1)*out : (r+1)*out]
		for o := 0; o < out; o++ {
			wo := w[o*in : o*in+in : o*in+in]
			sum := b[o]
			for i, wi := range wo {
				sum += wi * xr[i]
			}
			if fuseReLU && sum < 0 {
				sum = 0
			}
			yr[o] = sum
		}
	}
}
