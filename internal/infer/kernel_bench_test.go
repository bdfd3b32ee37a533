package infer

import (
	"fmt"
	"math/rand"
	"testing"

	"ssmdvfs/internal/nn"
)

// benchBatches is how many different input batches a kernel benchmark
// cycles through, so the branch predictor cannot learn one input.
const benchBatches = 32

// BenchmarkForwardBatchKernel isolates the two backends' batch kernels
// on the deployed decision-head shape (6→12→12→6) so kernel-only
// regressions are visible without engine overhead on top. It cycles
// through benchBatches random batches.
func BenchmarkForwardBatchKernel(b *testing.B) {
	m, err := nn.NewMLP([]int{6, 12, 12, 6}, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []Kind{KindFloat64, KindInt8} {
		bk, err := New(m, kind)
		if err != nil {
			b.Fatal(err)
		}
		for _, rows := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("backend=%s/rows=%d", kind, rows), func(b *testing.B) {
				xs := make([]nn.Batch, benchBatches)
				rng := rand.New(rand.NewSource(11))
				for k := range xs {
					xs[k].Reset(rows, 6)
					for i := range xs[k].Data {
						xs[k].Data[i] = rng.NormFloat64()
					}
				}
				var s Scratch
				bk.ForwardBatch(&xs[0], &s)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bk.ForwardBatch(&xs[i%len(xs)], &s)
				}
			})
		}
	}
}
