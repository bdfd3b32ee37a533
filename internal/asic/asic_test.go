package asic

import (
	"math"
	"math/rand"
	"testing"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/nn"
)

// compressedModel builds a model shaped like the paper's final network:
// 3 decision layers and 2 calibrator layers, 12-wide, pruned.
func compressedModel(t *testing.T) *core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	dec, err := nn.NewMLP([]int{6, 12, 10, 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := nn.NewMLP([]int{7, 11, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Model{
		FeatureIdx:     counters.SelectedFive(),
		Levels:         6,
		Decision:       dec,
		Calibrator:     cal,
		DecisionScaler: &counters.Scaler{Mean: make([]float64, 6), Std: ones(6)},
		CalibScaler:    &counters.Scaler{Mean: make([]float64, 7), Std: ones(7)},
		TargetScale:    10000,
	}
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func TestScaleAreaQuadratic(t *testing.T) {
	s, err := ScaleArea(65, 28)
	if err != nil {
		t.Fatal(err)
	}
	want := (28.0 / 65.0) * (28.0 / 65.0)
	if math.Abs(s-want) > 1e-12 {
		t.Fatalf("ScaleArea(65→28) = %g, want %g", s, want)
	}
	// Identity.
	if s, _ := ScaleArea(28, 28); s != 1 {
		t.Fatalf("same-node area scale = %g, want 1", s)
	}
	// An integer MAC is cheaper than FP32 and quadratic in its width.
	t.Run("hardware_scale", func(t *testing.T) {
		a16, e16, err := HardwareScale(16)
		if err != nil {
			t.Fatal(err)
		}
		if a16 >= 1 || e16 >= 1 {
			t.Fatalf("INT16 not cheaper than FP32: area %g energy %g", a16, e16)
		}
		if a8, _, _ := HardwareScale(8); math.Abs(a8-a16/4) > 1e-12 {
			t.Fatalf("INT8 area %g, want a quarter of INT16's %g", a8, a16)
		}
		if _, _, err := HardwareScale(0); err == nil {
			t.Fatal("0-bit MAC accepted")
		}
	})
}

func TestScalePowerShrinksWhenShrinking(t *testing.T) {
	s, err := ScalePower(65, 28)
	if err != nil {
		t.Fatal(err)
	}
	if s >= 1 || s <= 0 {
		t.Fatalf("ScalePower(65→28) = %g, want in (0,1)", s)
	}
}

func TestScaleUnknownNode(t *testing.T) {
	if _, err := ScaleArea(65, 33); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := ScalePower(42, 28); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestEstimateReproducesSectionVD(t *testing.T) {
	m := compressedModel(t)
	rep, err := Estimate(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 192 cycles (0.16 µs, 1.65% of a 10 µs epoch),
	// 0.0080 mm² at 28 nm, 0.0025 W. Exact numbers depend on pruning;
	// check the magnitudes with a dense (unpruned) compressed model.
	if rep.CyclesPerInference < 100 || rep.CyclesPerInference > 600 {
		t.Fatalf("cycles/inference = %d, want O(100)", rep.CyclesPerInference)
	}
	if rep.LatencyUs <= 0 || rep.LatencyUs > 0.6 {
		t.Fatalf("latency = %g µs, want well under a 10 µs epoch", rep.LatencyUs)
	}
	if rep.EpochFraction > 0.06 {
		t.Fatalf("epoch fraction = %.3f, want a few percent", rep.EpochFraction)
	}
	if rep.AreaMM2 < 0.001 || rep.AreaMM2 > 0.05 {
		t.Fatalf("area = %g mm², want O(0.01)", rep.AreaMM2)
	}
	if rep.PowerW <= 0 || rep.PowerW > 0.05 {
		t.Fatalf("power = %g W, want a few mW", rep.PowerW)
	}
}

func TestEstimatePrunedCostsLess(t *testing.T) {
	m := compressedModel(t)
	dense, err := Estimate(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Zero 60% of weights via masks.
	for _, head := range []*nn.MLP{m.Decision, m.Calibrator} {
		for _, l := range head.Layers {
			mask := make([]float64, len(l.W))
			for i := range mask {
				if i%5 >= 3 {
					mask[i] = 1
				}
			}
			if err := l.SetMask(mask); err != nil {
				t.Fatal(err)
			}
		}
	}
	sparse, err := Estimate(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sparse.CyclesPerInference >= dense.CyclesPerInference {
		t.Fatalf("pruned model not cheaper: %d >= %d cycles", sparse.CyclesPerInference, dense.CyclesPerInference)
	}
	if sparse.EnergyPJ >= dense.EnergyPJ {
		t.Fatalf("pruned model not lower energy: %g >= %g", sparse.EnergyPJ, dense.EnergyPJ)
	}
}

func TestEstimateMoreMACsFewerCycles(t *testing.T) {
	m := compressedModel(t)
	cfg1 := DefaultConfig()
	cfg4 := DefaultConfig()
	cfg4.MACs = 4
	r1, err := Estimate(m, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Estimate(m, cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if r4.CyclesPerInference >= r1.CyclesPerInference {
		t.Fatalf("4 MACs not faster: %d >= %d", r4.CyclesPerInference, r1.CyclesPerInference)
	}
	if r4.AreaMM2 <= r1.AreaMM2 {
		t.Fatalf("4 MACs not larger: %g <= %g", r4.AreaMM2, r1.AreaMM2)
	}
}

func TestEstimateValidation(t *testing.T) {
	m := compressedModel(t)
	cfg := DefaultConfig()
	cfg.MACs = 0
	if _, err := Estimate(m, cfg); err == nil {
		t.Fatal("zero MACs accepted")
	}
	cfg = DefaultConfig()
	cfg.TargetNodeNm = 99
	if _, err := Estimate(m, cfg); err == nil {
		t.Fatal("unknown node accepted")
	}
}
