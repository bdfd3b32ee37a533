package core

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refitStream builds a calibrator training stream [selected feats...,
// preset, level] whose targets are the parent's own predictions shifted
// by a multiplicative factor — a pure calibration drift, exactly what an
// online re-fit is meant to absorb.
func refitStream(m *Model, n int, factor float64, seed int64) (rows [][]float64, targets []float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		feats := randomFeatures(rng)
		preset := 0.05 + 0.10*rng.Float64()
		level := rng.Intn(m.Levels)
		row := make([]float64, 0, len(m.FeatureIdx)+2)
		for _, idx := range m.FeatureIdx {
			row = append(row, feats[idx])
		}
		row = append(row, preset, float64(level))
		pred := NewInference(m).PredictInstructions(feats, preset, level)
		rows = append(rows, row)
		targets = append(targets, pred*factor)
	}
	return rows, targets
}

func TestRefitCalibratorAbsorbsDrift(t *testing.T) {
	parent := trainedModel(t, 31)
	before := parent.Clone()
	rows, targets := refitStream(parent, 400, 2.0, 7)

	cand, rep, err := RefitCalibrator(parent, rows, targets, RefitOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != len(rows) {
		t.Fatalf("report rows = %d, want %d", rep.Rows, len(rows))
	}
	// The targets are the parent's predictions doubled, so the parent is
	// off by ~50% and a warm-started re-fit must close most of that gap.
	if rep.MAPEBefore < 40 {
		t.Fatalf("MAPE before = %.1f%%, expected a large calibration gap", rep.MAPEBefore)
	}
	if rep.MAPEAfter >= rep.MAPEBefore/2 {
		t.Fatalf("MAPE after = %.1f%% (before %.1f%%): re-fit did not converge", rep.MAPEAfter, rep.MAPEBefore)
	}

	// Lineage: candidate bumped, parent untouched.
	if cand.Lineage.Generation != 1 || cand.Lineage.Parent != 0 ||
		cand.Lineage.Source != SourceRefit || cand.Lineage.Refits != 1 {
		t.Fatalf("candidate lineage = %+v", cand.Lineage)
	}
	if parent.Lineage != (Lineage{}) {
		t.Fatalf("parent lineage mutated: %+v", parent.Lineage)
	}

	// The parent's weights must be untouched by the candidate's training.
	var pBuf, bBuf bytes.Buffer
	if err := parent.Calibrator.Save(&pBuf); err != nil {
		t.Fatal(err)
	}
	if err := before.Calibrator.Save(&bBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pBuf.Bytes(), bBuf.Bytes()) {
		t.Fatal("refit mutated the parent's calibrator weights")
	}

	// The decision head is inherited verbatim: same logits, same levels.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		feats := randomFeatures(rng)
		if got, want := NewInference(cand).DecideLevel(feats, 0.1), NewInference(parent).DecideLevel(feats, 0.1); got != want {
			t.Fatalf("decision level diverged after refit: %d vs %d", got, want)
		}
	}
}

func TestRefitCalibratorGenerationAssignment(t *testing.T) {
	parent := trainedModel(t, 32)
	rows, targets := refitStream(parent, 64, 1.5, 3)
	opts := RefitOptions{Epochs: 2, Seed: 3, Generation: 7}
	cand, _, err := RefitCalibrator(parent, rows, targets, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Lineage.Generation != 7 {
		t.Fatalf("explicit generation not honored: got %d", cand.Lineage.Generation)
	}
	// A second-order refit chains parent generation and the refit count.
	grand, _, err := RefitCalibrator(cand, rows, targets, RefitOptions{Epochs: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if grand.Lineage.Generation != 8 || grand.Lineage.Parent != 7 || grand.Lineage.Refits != 2 {
		t.Fatalf("chained lineage = %+v", grand.Lineage)
	}
}

func TestRefitCalibratorRejectsBadInput(t *testing.T) {
	parent := trainedModel(t, 33)
	rows, targets := refitStream(parent, 16, 1.0, 1)
	if _, _, err := RefitCalibrator(nil, rows, targets, RefitOptions{}); err == nil {
		t.Fatal("nil parent accepted")
	}
	if _, _, err := RefitCalibrator(parent, nil, nil, RefitOptions{}); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, _, err := RefitCalibrator(parent, rows, targets[:8], RefitOptions{}); err == nil {
		t.Fatal("mismatched rows/targets accepted")
	}
	if _, _, err := RefitCalibrator(parent, [][]float64{{1, 2}}, []float64{1}, RefitOptions{}); err == nil {
		t.Fatal("short row accepted")
	}
	bad := append([][]float64(nil), rows...)
	badTargets := append([]float64(nil), targets...)
	badTargets[0] = math.NaN()
	if _, _, err := RefitCalibrator(parent, bad, badTargets, RefitOptions{Epochs: 2}); err == nil {
		t.Fatal("NaN target produced a servable model")
	}
}

func TestLineageSaveLoadRoundTrip(t *testing.T) {
	m := trainedModel(t, 34)

	// Zero lineage is omitted from the artifact entirely, so pre-lineage
	// artifacts and tools keep seeing byte-identical files.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "lineage") {
		t.Fatal("zero lineage was serialized")
	}

	m.Lineage = Lineage{Generation: 3, Parent: 2, Source: SourceRefit, Refits: 3}
	buf.Reset()
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Lineage != m.Lineage {
		t.Fatalf("lineage round-trip: got %+v, want %+v", got.Lineage, m.Lineage)
	}
	if s := got.Lineage.String(); !strings.Contains(s, "gen 3") || !strings.Contains(s, SourceRefit) {
		t.Fatalf("lineage string = %q", s)
	}
}
