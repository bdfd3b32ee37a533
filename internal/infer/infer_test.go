package infer

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ssmdvfs/internal/nn"
)

func testMLP(t testing.TB, sizes []int, seed int64) *nn.MLP {
	t.Helper()
	m, err := nn.NewMLP(sizes, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"", KindFloat64, true},
		{"float64", KindFloat64, true},
		{"int8", KindInt8, true},
		{"float32", "", false},
		{"INT8", "", false},
	} {
		got, err := ParseKind(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseKind(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if err != nil {
			var ie *Error
			if !errors.As(err, &ie) || ie.Stage != "kind" {
				t.Errorf("ParseKind(%q) error %v is not a stage=kind *Error", tc.in, err)
			}
		}
	}
}

// TestFloat64BackendMatchesMLP pins the float64 backend to nn.Forward bit
// for bit, on both entry points.
func TestFloat64BackendMatchesMLP(t *testing.T) {
	m := testMLP(t, []int{6, 20, 20, 6}, 1)
	b, err := New(m, KindFloat64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var x nn.Batch
	x.Reset(13, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	var s Scratch
	y := b.ForwardBatch(&x, &s)
	for r := 0; r < x.Rows; r++ {
		want := m.Forward(x.Row(r))
		for k, v := range y.Row(r) {
			if v != want[k] {
				t.Fatalf("batch row %d out %d: %g != %g", r, k, v, want[k])
			}
		}
		got := b.Forward(x.Row(r), &s)
		for k, v := range got {
			if v != want[k] {
				t.Fatalf("row %d out %d: %g != %g", r, k, v, want[k])
			}
		}
	}
	d := b.Describe()
	if d.Kind != KindFloat64 || d.In != 6 || d.Out != 6 || d.WeightBits != 64 || d.Layers != 3 {
		t.Fatalf("Describe() = %+v", d)
	}
}

// TestInt8RowMatchesBatch: the int8 single-row path routes through the
// batch kernel, so the two must agree exactly, and batches must be
// row-order-preserving regardless of tile boundaries.
func TestInt8RowMatchesBatch(t *testing.T) {
	m := testMLP(t, []int{6, 20, 20, 6}, 3)
	b, err := New(m, KindInt8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for _, rows := range []int{1, 3, 4, 5, 8, 17} {
		var x nn.Batch
		x.Reset(rows, 6)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		var s, s2 Scratch
		y := b.ForwardBatch(&x, &s)
		for r := 0; r < rows; r++ {
			want := b.Forward(x.Row(r), &s2)
			for k, v := range y.Row(r) {
				if v != want[k] {
					t.Fatalf("rows=%d row %d out %d: batch %g != row %g", rows, r, k, v, want[k])
				}
			}
		}
	}
}

// TestInt8TracksFloat64 bounds the quantized backend's drift from the
// reference on synthetic standardized rows: the relative logit error
// stays small and the argmax flip rate is well under the serving bound.
// Its weight grid is Quantize's at 8 bits, exactly. Over widths, every
// fake-quantized weight sits on its channel's grid, pruned weights stay
// zero, the worst weight error shrinks as bits grow, and 16 bits is
// near lossless.
func TestInt8TracksFloat64(t *testing.T) {
	m := testMLP(t, []int{6, 20, 20, 6}, 5)
	b, err := New(m, KindInt8)
	if err != nil {
		t.Fatal(err)
	}
	rep := CheckParity(m, b, 2048, 6)
	t.Logf("int8 parity: %+v", rep)
	if rep.MaxRelErr > 0.15 {
		t.Fatalf("max relative logit error %.4f, want <= 0.15", rep.MaxRelErr)
	}
	if rep.FlipRate > 0.02 {
		t.Fatalf("argmax flip rate %.4f over %d rows, want <= 0.02", rep.FlipRate, rep.Rows)
	}
	if d := b.Describe(); d.WeightBits != 8 || d.Kind != KindInt8 {
		t.Fatalf("Describe() = %+v", d)
	}

	q8, err := Quantize(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	for li, ql := range b.(*int8Backend).layers {
		for i, c := range ql.mac.Layers[0].W {
			if want := c * ql.sw[i/ql.mac.InputSize()]; q8.Layers[li].W[i] != want {
				t.Fatalf("layer %d weight %d: Quantize %g, backend %g", li, i, q8.Layers[li].W[i], want)
			}
		}
	}

	pruned := m.Clone()
	mask := make([]float64, len(pruned.Layers[0].W))
	for i := range mask {
		mask[i] = float64(i % 2)
	}
	if err := pruned.Layers[0].SetMask(mask); err != nil {
		t.Fatal(err)
	}
	widths := []int{4, 8, 12, 16}
	qs := make([]*nn.MLP, len(widths))
	for wi, bits := range widths {
		if qs[wi], err = Quantize(pruned, bits); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("grid_property", func(t *testing.T) {
		for wi, bits := range widths {
			levels := float64(int64(1)<<(bits-1) - 1)
			for li, l := range qs[wi].Layers {
				src := pruned.Layers[li]
				for o := 0; o < l.Out; o++ {
					maxAbs := 0.0
					for _, w := range src.W[o*l.In : (o+1)*l.In] {
						maxAbs = max(maxAbs, math.Abs(w))
					}
					for i := o * l.In; i < (o+1)*l.In; i++ {
						if steps := l.W[i] / (maxAbs / levels); math.Abs(steps-math.Round(steps)) > 1e-9 {
							t.Fatalf("%d bits layer %d weight %d = %g is off its channel's grid", bits, li, i, l.W[i])
						}
					}
				}
			}
		}
	})

	t.Run("mask_preserved", func(t *testing.T) {
		for wi, bits := range widths {
			for i, mv := range mask {
				if w := qs[wi].Layers[0].W[i]; mv == 0 && w != 0 {
					t.Fatalf("%d bits: pruned weight %d became %g", bits, i, w)
				}
			}
		}
	})

	t.Run("error_shrinks_with_bits", func(t *testing.T) {
		prev := math.Inf(1)
		for wi, bits := range widths {
			maxErr := 0.0
			for li, l := range qs[wi].Layers {
				for i, w := range l.W {
					maxErr = max(maxErr, math.Abs(w-pruned.Layers[li].W[i]))
				}
			}
			if maxErr > prev {
				t.Fatalf("%d bits has larger weight error (%g) than fewer bits (%g)", bits, maxErr, prev)
			}
			prev = maxErr
		}
	})

	t.Run("16bit_near_lossless", func(t *testing.T) {
		x := []float64{0.1, -0.5, 0.9, 0.2, -0.3, 0.7}
		want, got := pruned.Forward(x), qs[len(widths)-1].Forward(x)
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-3*(1+math.Abs(want[k])) {
				t.Fatalf("16-bit output %d diverges: %g vs %g", k, got[k], want[k])
			}
		}
	})
}

// TestInt8RejectsDegenerateScales: a corrupt artifact (all-zero layer,
// NaN weight, Inf bias) must fail backend construction with a structured
// *Error, not serve all-zero or NaN logits. Quantize fails the same way,
// and on a width outside [2, 31].
func TestInt8RejectsDegenerateScales(t *testing.T) {
	zero := testMLP(t, []int{4, 8, 4}, 7)
	for i := range zero.Layers[1].W {
		zero.Layers[1].W[i] = 0
	}
	_, err := New(zero, KindInt8)
	var ie *Error
	if !errors.As(err, &ie) || ie.Stage != "quantize" || ie.Layer != 1 {
		t.Fatalf("all-zero layer: got %v, want stage=quantize layer=1 *Error", err)
	}

	nan := testMLP(t, []int{4, 8, 4}, 8)
	nan.Layers[0].W[3] = math.NaN()
	_, err = New(nan, KindInt8)
	if !errors.As(err, &ie) || ie.Stage != "quantize" || ie.Layer != 0 {
		t.Fatalf("NaN weight: got %v, want stage=quantize layer=0 *Error", err)
	}

	// The quantizer checks biases as well as weights: New takes
	// in-memory MLPs, which no loader has validated.
	inf := testMLP(t, []int{4, 8, 4}, 8)
	inf.Layers[1].B[0] = math.Inf(1)
	_, err = New(inf, KindInt8)
	if !errors.As(err, &ie) || ie.Stage != "quantize" || ie.Layer != 1 {
		t.Fatalf("Inf bias: got %v, want stage=quantize layer=1 *Error", err)
	}
	t.Run("degenerate_scales", func(t *testing.T) {
		var ie *Error
		if _, err := Quantize(zero, 8); !errors.As(err, &ie) || ie.Stage != "quantize" || ie.Layer != 1 {
			t.Fatalf("Quantize(all-zero layer): got %v, want stage=quantize layer=1 *Error", err)
		}
		if _, err := Quantize(nan, 8); !errors.As(err, &ie) || ie.Stage != "quantize" || ie.Layer != 0 {
			t.Fatalf("Quantize(NaN weight): got %v, want stage=quantize layer=0 *Error", err)
		}
		if _, err := Quantize(inf, 8); !errors.As(err, &ie) || ie.Stage != "quantize" || ie.Layer != 1 {
			t.Fatalf("Quantize(Inf bias): got %v, want stage=quantize layer=1 *Error", err)
		}
	})

	t.Run("bit_range", func(t *testing.T) {
		ok := testMLP(t, []int{4, 8, 4}, 9)
		for _, bits := range []int{1, 32, 40} {
			var ie *Error
			if _, err := Quantize(ok, bits); !errors.As(err, &ie) || ie.Stage != "quantize" {
				t.Fatalf("Quantize(%d bits): got %v, want stage=quantize *Error", bits, err)
			}
		}
		for _, bits := range []int{2, 31} {
			if _, err := Quantize(ok, bits); err != nil {
				t.Fatalf("Quantize(%d bits): %v", bits, err)
			}
		}
	})

	if _, err := New(testMLP(t, []int{4, 8, 4}, 9), Kind("bf16")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestInt8ZeroRowMatchesBias: an all-zero input row dequantizes to
// exactly the bias path, matching float64 on the same row.
func TestInt8ZeroRowMatchesBias(t *testing.T) {
	m := testMLP(t, []int{6, 12, 6}, 10)
	b, err := New(m, KindInt8)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	zero := make([]float64, 6)
	got := b.Forward(zero, &s)
	want := m.Forward(zero)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("zero row out %d: int8 %g != float64 %g", k, got[k], want[k])
		}
	}
}

func TestBackendSteadyStateAllocs(t *testing.T) {
	m := testMLP(t, []int{6, 20, 20, 6}, 11)
	for _, kind := range []Kind{KindFloat64, KindInt8} {
		b, err := New(m, kind)
		if err != nil {
			t.Fatal(err)
		}
		var x nn.Batch
		x.Reset(16, 6)
		for i := range x.Data {
			x.Data[i] = float64(i%7) - 3
		}
		var s Scratch
		row := make([]float64, 6)
		b.ForwardBatch(&x, &s)
		b.Forward(row, &s)
		if allocs := testing.AllocsPerRun(200, func() { b.ForwardBatch(&x, &s) }); allocs > 0 {
			t.Errorf("%s ForwardBatch allocates %.1f objects/op, want 0", kind, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() { b.Forward(row, &s) }); allocs > 0 {
			t.Errorf("%s Forward allocates %.1f objects/op, want 0", kind, allocs)
		}
	}
}

// TestConcurrentBackendParity hammers both backends from 16 goroutines
// with per-goroutine scratch, asserting bit-identical outputs to a serial
// pass. With -race this proves backends are read-only after construction.
func TestConcurrentBackendParity(t *testing.T) {
	m := testMLP(t, []int{6, 20, 20, 6}, 12)
	rng := rand.New(rand.NewSource(13))
	var x nn.Batch
	x.Reset(37, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for _, kind := range []Kind{KindFloat64, KindInt8} {
		b, err := New(m, kind)
		if err != nil {
			t.Fatal(err)
		}
		var ws Scratch
		ref := b.ForwardBatch(&x, &ws)
		want := make([]float64, len(ref.Data))
		copy(want, ref.Data)

		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var s Scratch
				for rep := 0; rep < 8; rep++ {
					if (g+rep)%2 == 0 {
						y := b.ForwardBatch(&x, &s)
						for i, v := range y.Data {
							if v != want[i] {
								t.Errorf("%s goroutine %d batch elem %d: %g != %g", kind, g, i, v, want[i])
								return
							}
						}
					} else {
						for r := 0; r < x.Rows; r++ {
							got := b.Forward(x.Row(r), &s)
							wr := want[r*ref.Cols : (r+1)*ref.Cols]
							for k, v := range got {
								if v != wr[k] {
									t.Errorf("%s goroutine %d row %d out %d: %g != %g", kind, g, r, k, v, wr[k])
									return
								}
							}
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
