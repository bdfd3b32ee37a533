package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/datagen"
	"ssmdvfs/internal/gpusim"
)

// syntheticDataset builds a corpus whose structure mirrors the real one:
// a "memory-boundedness" parameter m ∈ [0,1] drives both the counters and
// the window-normalized loss of each level, loss(level) = (1-m)·(fDef/f − 1).
func syntheticDataset(n int, seed int64) *datagen.Dataset {
	rng := rand.New(rand.NewSource(seed))
	tbl := clockdomain.TitanX()
	ds := &datagen.Dataset{CounterNames: counters.Names(), Levels: tbl.Len()}
	fDef := tbl.Point(tbl.Default()).FrequencyHz
	for i := 0; i < n; i++ {
		m := rng.Float64()
		feats := make([]float64, counters.Num)
		feats[counters.IdxIPC] = 2.0*(1-m) + rng.NormFloat64()*0.02
		feats[counters.IdxPPC] = 3 + 4*(1-m) + rng.NormFloat64()*0.05
		feats[counters.IdxMH] = 60000*m + rng.NormFloat64()*500
		feats[counters.IdxMHNL] = 5000*m + rng.NormFloat64()*100
		feats[counters.IdxL1CRM] = 2000*m + rng.NormFloat64()*50
		for level := 0; level < tbl.Len(); level++ {
			f := tbl.Point(level).FrequencyHz
			loss := (1 - m) * (fDef/f - 1)
			instr := 20000 * (1 - loss/2) * (0.5 + 0.5*(1-m))
			ds.Samples = append(ds.Samples, datagen.Sample{
				Kernel:       "synthetic",
				Cluster:      0,
				Level:        level,
				Features:     feats,
				PerfLoss:     loss + rng.NormFloat64()*0.002,
				ScalingInstr: instr,
			})
		}
	}
	return ds
}

func quickOpts() TrainOptions {
	o := DefaultTrainOptions()
	o.Epochs = 40
	return o
}

func TestTrainReachesUsefulAccuracy(t *testing.T) {
	ds := syntheticDataset(300, 1)
	m, rep, err := Train(ds, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Six classes, monotone structure: well above the 1/6 chance floor,
	// in the regime the paper reports (~70%).
	if rep.Accuracy < 0.55 {
		t.Fatalf("decision accuracy = %.2f, want >= 0.55", rep.Accuracy)
	}
	if rep.MAPE > 20 {
		t.Fatalf("calibrator MAPE = %.1f%%, want <= 20%%", rep.MAPE)
	}
	if m.FLOPs() != rep.FLOPs || m.FLOPs() <= 0 {
		t.Fatalf("FLOPs inconsistent: model %d report %d", m.FLOPs(), rep.FLOPs)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, _, err := Train(&datagen.Dataset{}, quickOpts()); err == nil {
		t.Fatal("empty dataset accepted")
	}
	ds := syntheticDataset(10, 2)
	bad := quickOpts()
	bad.Epochs = 0
	if _, _, err := Train(ds, bad); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

func TestDecideLevelRespondsToPreset(t *testing.T) {
	ds := syntheticDataset(300, 3)
	m, _, err := Train(ds, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// A fully compute-bound feature vector: loss at min level ≈ 70%.
	feats := make([]float64, counters.Num)
	feats[counters.IdxIPC] = 2.0
	feats[counters.IdxPPC] = 7
	tight := NewInference(m).DecideLevel(feats, 0.02)
	loose := NewInference(m).DecideLevel(feats, 0.60)
	if tight < loose {
		t.Fatalf("tight preset chose slower level than loose: %d < %d", tight, loose)
	}
	if tight < 4 {
		t.Fatalf("compute-bound at 2%% preset chose level %d, want fast level", tight)
	}
	// A fully memory-bound vector: every level is nearly free.
	mem := make([]float64, counters.Num)
	mem[counters.IdxPPC] = 3
	mem[counters.IdxMH] = 60000
	mem[counters.IdxMHNL] = 5000
	mem[counters.IdxL1CRM] = 2000
	if lvl := NewInference(m).DecideLevel(mem, 0.10); lvl > 1 {
		t.Fatalf("memory-bound at 10%% preset chose level %d, want near 0", lvl)
	}
}

func TestPredictInstructionsPositiveAndSane(t *testing.T) {
	ds := syntheticDataset(300, 4)
	m, _, err := Train(ds, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	feats := make([]float64, counters.Num)
	feats[counters.IdxIPC] = 1.0
	feats[counters.IdxPPC] = 5
	feats[counters.IdxMH] = 30000
	got := NewInference(m).PredictInstructions(feats, 0.1, 3)
	if got < 0 || math.IsNaN(got) {
		t.Fatalf("prediction = %g", got)
	}
	if got < 1000 || got > 100000 {
		t.Fatalf("prediction %g outside plausible range for synthetic targets ~10-20k", got)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	ds := syntheticDataset(100, 5)
	m, _, err := Train(ds, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	feats := make([]float64, counters.Num)
	feats[counters.IdxIPC] = 1.2
	feats[counters.IdxPPC] = 5.5
	if a, b := NewInference(m).DecideLevel(feats, 0.1), NewInference(got).DecideLevel(feats, 0.1); a != b {
		t.Fatalf("loaded model decides %d, original %d", b, a)
	}
	pa := NewInference(m).PredictInstructions(feats, 0.1, 2)
	pb := NewInference(got).PredictInstructions(feats, 0.1, 2)
	if math.Abs(pa-pb) > 1e-9 {
		t.Fatalf("loaded model predicts %g, original %g", pb, pa)
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	for i, c := range []string{``, `{}`, `{"levels":6,"target_scale":1}`} {
		if _, err := Load(bytes.NewReader([]byte(c))); err == nil {
			t.Fatalf("corrupt model %d accepted", i)
		}
	}
}

func TestControllerValidation(t *testing.T) {
	ds := syntheticDataset(50, 6)
	m, _, err := Train(ds, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewController(nil, 0.1, 4, true); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewController(m, -0.1, 4, true); err == nil {
		t.Fatal("negative preset accepted")
	}
	if _, err := NewController(m, 0.1, 0, true); err == nil {
		t.Fatal("zero clusters accepted")
	}
}

// statsWith builds EpochStats whose counter projection matches the given
// feature intent.
func statsWith(cluster int, instr int64, memBound bool) gpusim.EpochStats {
	s := gpusim.EpochStats{
		Cluster:      cluster,
		Instructions: instr,
		Cycles:       11000,
		OP:           clockdomain.TitanX().Point(5),
		Level:        5,
		WarpsActive:  8,
		DynPowerW:    4, StaticPowerW: 2,
	}
	if memBound {
		s.StallMemLoad = 60000
		s.StallMemOther = 5000
		s.L1ReadMisses = 2000
	}
	return s
}

func TestControllerCalibrationTightensOnSlowdown(t *testing.T) {
	ds := syntheticDataset(200, 7)
	m, _, err := Train(ds, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(m, 0.10, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	// First epoch: establishes a prediction.
	ctrl.Decide(statsWith(0, 20000, true))
	if ctrl.EffectivePreset(0) != 0.10 {
		t.Fatalf("preset moved before any comparison: %g", ctrl.EffectivePreset(0))
	}
	// Second epoch: far fewer instructions than any plausible prediction
	// → the effective preset must tighten.
	ctrl.Decide(statsWith(0, 10, true))
	if got := ctrl.EffectivePreset(0); got >= 0.10 {
		t.Fatalf("effective preset = %g after underrun, want < 0.10", got)
	}
	if ctrl.Inferences() != 2 {
		t.Fatalf("inferences = %d, want 2", ctrl.Inferences())
	}
}

func TestControllerCalibrationRecovers(t *testing.T) {
	ds := syntheticDataset(200, 8)
	m, _, err := Train(ds, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(m, 0.10, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Decide(statsWith(0, 20000, true))
	ctrl.Decide(statsWith(0, 10, true)) // tighten
	tightened := ctrl.EffectivePreset(0)
	// Now run far ahead of prediction repeatedly: preset must relax back
	// toward (but never beyond) the user preset.
	for i := 0; i < 20; i++ {
		ctrl.Decide(statsWith(0, 10_000_000, true))
	}
	if got := ctrl.EffectivePreset(0); got <= tightened {
		t.Fatalf("preset did not recover: %g <= %g", got, tightened)
	}
	if got := ctrl.EffectivePreset(0); got > 0.10+1e-12 {
		t.Fatalf("preset overshot the user setting: %g", got)
	}
}

func TestControllerNoCalibrationKeepsPreset(t *testing.T) {
	ds := syntheticDataset(200, 9)
	m, _, err := Train(ds, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(m, 0.10, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ctrl.Decide(statsWith(0, int64(10+i*1000), true))
	}
	if got := ctrl.EffectivePreset(0); got != 0.10 {
		t.Fatalf("nocal controller moved the preset to %g", got)
	}
	if ctrl.Name() != "ssmdvfs-nocal" {
		t.Fatalf("Name = %q", ctrl.Name())
	}
}

func TestControllerPerClusterIsolation(t *testing.T) {
	ds := syntheticDataset(200, 10)
	m, _, err := Train(ds, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(m, 0.10, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	// Starve only cluster 0.
	ctrl.Decide(statsWith(0, 20000, true))
	ctrl.Decide(statsWith(1, 20000, true))
	ctrl.Decide(statsWith(0, 10, true))
	ctrl.Decide(statsWith(1, 20000, true))
	if ctrl.EffectivePreset(0) >= 0.10 {
		t.Fatal("cluster 0 did not tighten")
	}
	if ctrl.EffectivePreset(1) > 0.10+1e-12 || ctrl.EffectivePreset(1) < 0.099 {
		t.Fatalf("cluster 1 preset drifted to %g", ctrl.EffectivePreset(1))
	}
}

func TestArchitectures(t *testing.T) {
	init := PaperInitial()
	if len(init.DecisionHidden) != 4 || len(init.CalibratorHidden) != 3 {
		t.Fatalf("PaperInitial = %+v, want 4+3 hidden layers (5+4 FC layers)", init)
	}
	comp := PaperCompressed()
	if len(comp.DecisionHidden) != 2 || len(comp.CalibratorHidden) != 1 {
		t.Fatalf("PaperCompressed = %+v, want 2+1 hidden layers (3+2 FC layers)", comp)
	}
}

func TestEvaluateMatchesTrainReport(t *testing.T) {
	ds := syntheticDataset(200, 11)
	m, _, err := Train(ds, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep := Evaluate(m, ds)
	if rep.Accuracy <= 0.3 {
		t.Fatalf("full-set evaluation accuracy %.2f suspiciously low", rep.Accuracy)
	}
	if rep.FLOPs != m.FLOPs() {
		t.Fatal("Evaluate FLOPs mismatch")
	}
}
