package kernels

import (
	"testing"

	"ssmdvfs/internal/gpusim"
)

// TestBehaviourFrequencySensitivity is the suite's integration contract:
// each archetype must exhibit the frequency sensitivity its name
// promises when actually simulated. Compute-bound kernels slow roughly
// with the frequency ratio; memory-bound and irregular kernels barely
// notice. This is the property every DVFS mechanism in the project
// exploits, so the suite must deliver it.
func TestBehaviourFrequencySensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := gpusim.SmallConfig()
	cfg.Clusters = 2

	// One representative per archetype keeps the test fast.
	reps := map[Behaviour]string{
		ComputeBound:  "polybench.gemm",
		MemoryBound:   "parboil.stencil",
		Irregular:     "parboil.spmv",
		CacheFriendly: "rodinia.hotspot",
	}
	fRatio := cfg.OPs.Point(cfg.OPs.Default()).FrequencyHz / cfg.OPs.Point(0).FrequencyHz

	for behaviour, name := range reps {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		k := spec.Build(0.2)
		var times [2]int64
		for i, lvl := range []int{0, cfg.OPs.Default()} {
			sim, err := gpusim.New(cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			sim.ForceLevel(lvl)
			res := sim.Run(gpusim.DefaultMaxRunPs)
			if !res.Completed {
				t.Fatalf("%s did not complete", name)
			}
			times[i] = res.ExecTimePs
		}
		slowdown := float64(times[0]) / float64(times[1])
		switch behaviour {
		case ComputeBound, CacheFriendly:
			if slowdown < fRatio*0.85 {
				t.Errorf("%s (%s): slowdown %.2f, want near frequency ratio %.2f",
					name, behaviour, slowdown, fRatio)
			}
		case MemoryBound, Irregular:
			if slowdown > 1.15 {
				t.Errorf("%s (%s): slowdown %.2f, want < 1.15 (frequency insensitive)",
					name, behaviour, slowdown)
			}
		}
	}
}

// TestPhaseKernelAlternates verifies the phase archetype actually swings
// between compute- and memory-dominated epochs, which the calibrator
// ablation depends on.
func TestPhaseKernelAlternates(t *testing.T) {
	assertPhaseSwing(t, "rodinia.backprop")
}

// TestDNNLayerKernelShiftsPhases holds the DNN archetype to the same
// contract: the layer walk (conv → pool → fc → softmax) must move the
// memory-boundedness the counters report, or the online adaptation loop
// has no layer-induced drift to track.
func TestDNNLayerKernelShiftsPhases(t *testing.T) {
	assertPhaseSwing(t, "tango.alexnet")
}

func assertPhaseSwing(t *testing.T, name string) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := gpusim.SmallConfig()
	cfg.Clusters = 1
	spec, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := gpusim.New(cfg, spec.Build(0.4))
	if err != nil {
		t.Fatal(err)
	}
	// Memory-boundedness as PCSTALL estimates it: memory stalls against
	// everything that advanced or waited on compute. (Stall counts alone
	// are useless here — a saturated compute epoch issues every cycle and
	// records almost no stalls at all.)
	var memFracs []float64
	sim.SetObserver(func(s gpusim.EpochStats) {
		mem := float64(s.StallMemLoad + s.StallMemOther)
		comp := float64(s.StallCompute+s.StallControl) + float64(s.Instructions)
		if mem+comp > 0 {
			memFracs = append(memFracs, mem/(mem+comp))
		}
	})
	if res := sim.Run(gpusim.DefaultMaxRunPs); !res.Completed {
		t.Fatal("kernel did not complete")
	}
	if len(memFracs) < 4 {
		t.Skipf("too few epochs (%d) to assess phases", len(memFracs))
	}
	lo, hi := memFracs[0], memFracs[0]
	for _, f := range memFracs {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi-lo < 0.4 {
		t.Errorf("memory-stall fraction swings only %.2f..%.2f; phases too weak", lo, hi)
	}
}
