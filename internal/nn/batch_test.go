package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func fillRows(b *Batch, rows, cols int, rng *rand.Rand) {
	b.Reset(rows, cols)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
}

// batchKernels lists the ForwardBatch kernels this CPU can run, as
// vectorTile settings: the scalar reference, then the vector tile where
// the CPU has AVX2.
func batchKernels() []bool {
	if hasAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

func kernelName(vector bool) string {
	if vector {
		return "vector"
	}
	return "scalar"
}

// useKernel points ForwardBatch at the vector tile or the scalar
// reference until the test ends.
func useKernel(t testing.TB, vector bool) {
	prev := vectorTile
	vectorTile = vector
	t.Cleanup(func() { vectorTile = prev })
}

// TestForwardBatchMatchesForward pins both batch kernels to the
// allocating Forward, bit for bit, across row counts that exercise full
// 4-row tiles, a short last tile, and both together — plus scratch reuse
// across networks of different shapes (buffer resize). With keep set,
// every layer's kept output must match the row-at-a-time chain too.
func TestForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small, err := NewMLP([]int{6, 12, 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewMLP([]int{6, 20, 20, 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var x Batch
	var bs BatchScratch
	for _, vector := range batchKernels() {
		useKernel(t, vector)
		for _, keep := range []bool{false, true} {
			for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 16, 33, 64} {
				for _, m := range []*MLP{small, big, small} {
					fillRows(&x, rows, m.InputSize(), rng)
					y := m.forwardBatch(&x, &bs, keep)
					if y.Rows != rows || y.Cols != m.OutputSize() {
						t.Fatalf("%s rows=%d: got %dx%d output, want %dx%d",
							kernelName(vector), rows, y.Rows, y.Cols, rows, m.OutputSize())
					}
					for r := 0; r < rows; r++ {
						want := m.Forward(x.Row(r))
						got := y.Row(r)
						for k := range want {
							if got[k] != want[k] {
								t.Fatalf("%s rows=%d row %d out %d: batch %g != Forward %g",
									kernelName(vector), rows, r, k, got[k], want[k])
							}
						}
					}
					if keep {
						checkKept(t, kernelName(vector), m, &x, &bs)
					}
				}
			}
		}
	}
}

// checkKept fails t unless bs holds, for every row of x, each layer's
// output bit for bit as the row-at-a-time chain computes it: ForwardInto,
// then relu on hidden layers.
func checkKept(t *testing.T, kernel string, m *MLP, x *Batch, bs *BatchScratch) {
	t.Helper()
	for r := 0; r < x.Rows; r++ {
		h := x.Row(r)
		for i, l := range m.Layers {
			want := make([]float64, l.Out)
			l.ForwardInto(h, want)
			if i+1 < len(m.Layers) {
				relu(want)
			}
			kept := &bs.bufs[i]
			if kept.Rows != x.Rows || kept.Cols != l.Out {
				t.Fatalf("%s sizes %v: layer %d kept %dx%d, want %dx%d", kernel, m.Sizes(), i, kept.Rows, kept.Cols, x.Rows, l.Out)
			}
			for o, v := range kept.Row(r) {
				if math.Float64bits(v) != math.Float64bits(want[o]) {
					t.Fatalf("%s sizes %v rows %d: row %d layer %d out %d kept %g (%#x), chain %g (%#x)",
						kernel, m.Sizes(), x.Rows, r, i, o, v, math.Float64bits(v), want[o], math.Float64bits(want[o]))
				}
			}
			h = want
		}
	}
}

// TestForwardBatchRejectsMismatchedLayers: a layer that does not take
// what the one before gives panics under both kernels instead of
// reading past the activations.
func TestForwardBatchRejectsMismatchedLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, err := NewMLP([]int{6, 12, 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	m.Layers[1] = NewDense(24, 6, rng)
	var x Batch
	x.Reset(4, 6)
	var bs BatchScratch
	for _, vector := range batchKernels() {
		useKernel(t, vector)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ForwardBatch ran a 6→12 layer into a 24-input one", kernelName(vector))
				}
			}()
			m.ForwardBatch(&x, &bs)
		}()
	}
}

func TestForwardBatchSteadyStateAllocs(t *testing.T) {
	m, err := NewMLP([]int{6, 20, 20, 6}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	var x Batch
	x.Reset(16, 6)
	var s BatchScratch
	m.ForwardBatch(&x, &s) // warm the scratch buffers
	allocs := testing.AllocsPerRun(200, func() {
		m.ForwardBatch(&x, &s)
	})
	if allocs > 0 {
		t.Fatalf("ForwardBatch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestConcurrentForwardBatchMatchesRowAtATime hammers one read-only MLP
// from 16 goroutines, each alternating between one ForwardBatch over all
// rows and one one-row ForwardBatch per row, asserting bit-identical
// outputs to the serial pass, once per batch kernel. With -race this
// verifies the batched kernels share no mutable state across callers.
func TestConcurrentForwardBatchMatchesRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := NewMLP([]int{6, 20, 20, 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 61 // odd on purpose: full tiles plus a short one
	var x Batch
	fillRows(&x, rows, 6, rng)
	want := make([][]float64, rows)
	for r := range want {
		want[r] = m.Forward(x.Row(r))
	}

	const goroutines = 16
	for _, vector := range batchKernels() {
		useKernel(t, vector)
		kernel := kernelName(vector)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var bs BatchScratch
				var one Batch
				for rep := 0; rep < 8; rep++ {
					if (g+rep)%2 == 0 {
						y := m.ForwardBatch(&x, &bs)
						for r := 0; r < rows; r++ {
							got := y.Row(r)
							for k := range got {
								if got[k] != want[r][k] {
									t.Errorf("%s goroutine %d batch row %d out %d: %g != %g", kernel, g, r, k, got[k], want[r][k])
									return
								}
							}
						}
					} else {
						for r := 0; r < rows; r++ {
							one.Reset(1, x.Cols)
							copy(one.Data, x.Row(r))
							got := m.ForwardBatch(&one, &bs).Row(0)
							for k := range got {
								if got[k] != want[r][k] {
									t.Errorf("%s goroutine %d row %d out %d: %g != %g", kernel, g, r, k, got[k], want[r][k])
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

// FuzzForwardBatchParity pins both batch kernels to Forward, bit
// for bit, on networks of 1–3 layers 1–24 wide and batches of 0–70 rows.
// Weights and biases include exact and signed zeros; inputs include ±0,
// subnormals and finite values large enough to overflow to ±Inf and on
// to NaN, so -0 and NaN reach the ReLU. With keep set, every layer's kept
// output is pinned to the row-at-a-time chain as well.
func FuzzForwardBatchParity(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(2), uint8(5), uint8(11), uint8(11), uint8(5), true)
	f.Add(int64(2), uint8(61), uint8(1), uint8(6), uint8(0), uint8(19), uint8(3), false)
	f.Add(int64(3), uint8(3), uint8(3), uint8(23), uint8(1), uint8(2), uint8(0), true)
	f.Add(int64(4), uint8(70), uint8(2), uint8(0), uint8(23), uint8(13), uint8(22), false)
	f.Add(int64(121), uint8(62), uint8(1), uint8(0), uint8(3), uint8(22), uint8(0), true) // a -0 through ReLU
	f.Fuzz(func(t *testing.T, seed int64, rows, depth, w0, w1, w2, w3 uint8, keep bool) {
		sizes := []int{1 + int(w0)%24, 1 + int(w1)%24, 1 + int(w2)%24, 1 + int(w3)%24}[:2+int(depth)%3]
		rng := rand.New(rand.NewSource(seed))
		m, err := NewMLP(sizes, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range m.Layers {
			for i := range l.W {
				l.W[i] = fuzzParam(rng, l.W[i])
			}
			for i := range l.B {
				l.B[i] = fuzzParam(rng, rng.NormFloat64())
			}
		}
		var x Batch
		x.Reset(int(rows)%71, sizes[0])
		for i := range x.Data {
			x.Data[i] = fuzzInput(rng)
		}
		for _, vector := range batchKernels() {
			useKernel(t, vector)
			var bs BatchScratch // not the last kernel's, whose kept rows would hide missing ones
			y := m.forwardBatch(&x, &bs, keep)
			for r := 0; r < x.Rows; r++ {
				want := m.Forward(x.Row(r))
				for k, v := range y.Row(r) {
					if math.Float64bits(v) != math.Float64bits(want[k]) {
						t.Fatalf("%s sizes %v rows %d: row %d out %d is %g (%#x), Forward %g (%#x)",
							kernelName(vector), sizes, x.Rows, r, k, v, math.Float64bits(v), want[k], math.Float64bits(want[k]))
					}
				}
			}
			if keep {
				checkKept(t, kernelName(vector), m, &x, &bs)
			}
		}
	})
}

// fuzzParam returns v, or one time in four an exact or signed zero.
func fuzzParam(rng *rand.Rand, v float64) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	return v
}

// fuzzInput draws an input: mostly normal values, often ±0, subnormals
// and huge finite values.
func fuzzInput(rng *rand.Rand) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	case 2:
		return sign * math.MaxFloat64 * rng.Float64()
	}
	return rng.NormFloat64()
}

// BenchmarkForwardBatch is the zero-alloc guard for the batched hot path:
// it fails (not just reports) if a steady-state ForwardBatch allocates.
// CI runs it with -benchtime=1x -benchmem so the numbers stay visible.
func BenchmarkForwardBatch(b *testing.B) {
	m, err := NewMLP([]int{6, 20, 20, 6}, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			// 32 random batches in turn, so the branch predictor cannot
			// learn one input.
			xs := make([]Batch, 32)
			rng := rand.New(rand.NewSource(5))
			for k := range xs {
				fillRows(&xs[k], rows, 6, rng)
			}
			var s BatchScratch
			m.ForwardBatch(&xs[0], &s)
			if allocs := testing.AllocsPerRun(100, func() { m.ForwardBatch(&xs[0], &s) }); allocs > 0 {
				b.Fatalf("steady-state ForwardBatch allocates %.1f objects/op, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ForwardBatch(&xs[i%len(xs)], &s)
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
