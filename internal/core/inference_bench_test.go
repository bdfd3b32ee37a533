package core

import (
	"path/filepath"
	"testing"

	"ssmdvfs/internal/datagen"
)

// benchRows is how many different rows an inference benchmark cycles
// through, so the branch predictor cannot learn one input.
const benchRows = 32

// BenchmarkInference times core.Inference's entry points on the
// committed compressed model: Decide, the controller's DecideLevel then
// PredictInstructions pair, and DecideBatch at 1 and 64 rows. Rows are
// benchRows corpus samples spread over the bench corpus, at three
// presets in turn. Every sub-benchmark fails if a steady-state call
// allocates.
func BenchmarkInference(b *testing.B) {
	const cache = "../../testdata/bench-cache"
	m, err := LoadFile(filepath.Join(cache, "compressed.json"))
	if err != nil {
		b.Fatal(err)
	}
	ds, err := datagen.LoadFile(filepath.Join(cache, "dataset.json"))
	if err != nil {
		b.Fatal(err)
	}
	feats := make([][]float64, benchRows)
	presets := make([]float64, benchRows)
	for i := range feats {
		feats[i] = ds.Samples[i*len(ds.Samples)/benchRows].Features
		presets[i] = []float64{0.05, 0.10, 0.20}[i%3]
	}
	inf := NewInference(m)
	batch := func(n int) func(i int) {
		return func(i int) {
			inf.BeginBatch(n)
			for k := 0; k < n; k++ {
				r := (i + k) % benchRows
				inf.SetBatchRow(k, feats[r], presets[r])
			}
			inf.DecideBatch()
		}
	}
	cases := []struct {
		name string
		run  func(i int)
	}{
		{"decide", func(i int) {
			r := i % benchRows
			inf.Decide(feats[r], presets[r])
		}},
		{"level+predict", func(i int) {
			r := i % benchRows
			level := inf.DecideLevel(feats[r], presets[r])
			inf.PredictInstructions(feats[r], 0.10, level)
		}},
		{"batch/rows=1", batch(1)},
		{"batch/rows=64", batch(64)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			c.run(0) // grow the buffers
			i := 0
			if allocs := testing.AllocsPerRun(100, func() { c.run(i); i++ }); allocs > 0 {
				b.Fatalf("steady-state %s allocates %.1f objects/op, want 0", c.name, allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.run(i)
			}
		})
	}
}
