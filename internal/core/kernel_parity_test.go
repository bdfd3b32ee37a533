package core

import (
	"math"
	"path/filepath"
	"testing"
	_ "unsafe" // go:linkname

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/datagen"
	"ssmdvfs/internal/nn"
)

// vectorTile is internal/nn's batch-kernel selection, reached here so the
// test can force the scalar reference. It starts true exactly when the
// CPU runs the vector tile.
//
//go:linkname vectorTile ssmdvfs/internal/nn.vectorTile
var vectorTile bool

// TestDecideBatchMatchesDecideOnDataset runs every row of the committed
// bench corpus at three presets through DecideBatch, in 64-row chunks and
// again as 1-, 2- and 3-row batches, under each batch kernel the CPU
// runs, and pins level, PredInstr and logits bit for bit to Decide, and
// Decide to the heads' allocating nn.MLP.Forward (forwardDecide). Both
// committed models run: model.json's 20-wide layers, 6 levels and single
// calibrator output are widths and output counts that are not multiples
// of the vector tile's 4.
func TestDecideBatchMatchesDecideOnDataset(t *testing.T) {
	const cache = "../../testdata/bench-cache"
	ds, err := datagen.LoadFile(filepath.Join(cache, "dataset.json"))
	if err != nil {
		t.Fatal(err)
	}
	kernels := []bool{false}
	if vectorTile {
		kernels = append(kernels, true)
	}
	defer func(v bool) { vectorTile = v }(vectorTile)

	rows := len(ds.Samples)
	for _, name := range []string{"compressed.json", "model.json"} {
		m, err := LoadFile(filepath.Join(cache, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.EnsureBackends(); err != nil {
			t.Fatal(err)
		}
		ref, inf := NewInference(m), NewInference(m)
		for _, preset := range []float64{0.05, 0.10, 0.20} {
			levels := make([]int, rows)
			preds := make([]float64, rows)
			logits := make([][]float64, rows)
			for i, s := range ds.Samples {
				levels[i], preds[i] = ref.Decide(s.Features, preset)
				logits[i] = append([]float64(nil), ref.BatchLogits(0)...)
				wantLevel, wantPred, wantLogits := forwardDecide(m, s.Features, preset)
				if levels[i] != wantLevel || math.Float64bits(preds[i]) != math.Float64bits(wantPred) {
					t.Fatalf("%s preset %.2f row %d: Decide (%d, %g) != Forward (%d, %g)",
						name, preset, i, levels[i], preds[i], wantLevel, wantPred)
				}
				for k, v := range logits[i] {
					if math.Float64bits(v) != math.Float64bits(wantLogits[k]) {
						t.Fatalf("%s preset %.2f row %d logit %d: Decide %g != Forward %g", name, preset, i, k, v, wantLogits[k])
					}
				}
			}
			for _, vector := range kernels {
				vectorTile = vector
				for _, chunk := range []int{64, 1, 2, 3} {
					for start := 0; start < rows; start += chunk {
						n := min(chunk, rows-start)
						inf.BeginBatch(n)
						for i := 0; i < n; i++ {
							inf.SetBatchRow(i, ds.Samples[start+i].Features, preset)
						}
						inf.DecideBatch()
						for i := 0; i < n; i++ {
							r := start + i
							if inf.BatchLevel(i) != levels[r] ||
								math.Float64bits(inf.BatchPredInstr(i)) != math.Float64bits(preds[r]) {
								t.Fatalf("%s preset %.2f vector=%v chunk %d row %d: batch (%d, %g) != Decide (%d, %g)",
									name, preset, vector, chunk, r, inf.BatchLevel(i), inf.BatchPredInstr(i), levels[r], preds[r])
							}
							for k, v := range inf.BatchLogits(i) {
								if math.Float64bits(v) != math.Float64bits(logits[r][k]) {
									t.Fatalf("%s preset %.2f vector=%v chunk %d row %d logit %d: %g != %g",
										name, preset, vector, chunk, r, k, v, logits[r][k])
								}
							}
						}
					}
				}
			}
		}
	}
}

// forwardDecide is Decide on the float64 heads' allocating nn.MLP.Forward,
// the reference the batch kernel must match bit for bit.
func forwardDecide(m *Model, full []float64, preset float64) (level int, pred float64, logits []float64) {
	row := append(counters.Select(full, m.FeatureIdx), preset)
	logits = m.Decision.Forward(m.DecisionScaler.Transform(row))
	level = nn.Argmax(logits)
	out := m.Calibrator.Forward(m.CalibScaler.Transform(append(row, float64(level))))
	pred = out[0] * m.TargetScale
	if pred < 0 {
		pred = 0
	}
	return level, pred, logits
}
