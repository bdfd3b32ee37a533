package baselines

import (
	"testing"

	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/gpusim"
)

func computeStats(level int) gpusim.EpochStats {
	return gpusim.EpochStats{
		Cluster:      0,
		Level:        level,
		OP:           clockdomain.TitanX().Point(level),
		Instructions: 20000,
		Cycles:       11000,
		StallCompute: 4000,
		StallMemLoad: 100,
		DynPowerW:    5, StaticPowerW: 2,
	}
}

func memoryStats(level int) gpusim.EpochStats {
	return gpusim.EpochStats{
		Cluster:       0,
		Level:         level,
		OP:            clockdomain.TitanX().Point(level),
		Instructions:  2000,
		Cycles:        11000,
		StallMemLoad:  60000,
		StallMemOther: 8000,
		StallCompute:  500,
		DynPowerW:     2, StaticPowerW: 2,
	}
}

func TestStaticController(t *testing.T) {
	s := &Static{Level: 3}
	if got := s.Decide(computeStats(5)); got != 3 {
		t.Fatalf("static Decide = %d, want 3", got)
	}
	if s.Name() != "static-3" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestPCSTALLComputeBoundStaysFast(t *testing.T) {
	tbl := clockdomain.TitanX()
	p, err := NewPCSTALL(tbl, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Compute-bound with a tight 5% budget: only levels whose frequency
	// ratio fits may be chosen (1100 MHz is 5.9% slower → too slow).
	lvl := p.Decide(computeStats(5))
	if lvl != tbl.Default() {
		t.Fatalf("compute-bound at 5%% budget chose level %d, want default %d", lvl, tbl.Default())
	}
}

func TestPCSTALLMemoryBoundDropsLow(t *testing.T) {
	tbl := clockdomain.TitanX()
	p, err := NewPCSTALL(tbl, 0.10, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Smoothing = 0
	lvl := p.Decide(memoryStats(5))
	if lvl != 0 {
		t.Fatalf("memory-bound kernel chose level %d, want 0", lvl)
	}
}

func TestPCSTALLBudgetMonotone(t *testing.T) {
	tbl := clockdomain.TitanX()
	prev := tbl.Len()
	for _, preset := range []float64{0.0, 0.05, 0.10, 0.20, 0.40, 0.80} {
		p, err := NewPCSTALL(tbl, preset, 1)
		if err != nil {
			t.Fatal(err)
		}
		p.Smoothing = 0
		lvl := p.Decide(computeStats(5))
		if lvl > prev {
			t.Fatalf("larger budget %g chose faster level %d than %d", preset, lvl, prev)
		}
		prev = lvl
	}
}

func TestPCSTALLSmoothingUsesHistory(t *testing.T) {
	tbl := clockdomain.TitanX()
	p, err := NewPCSTALL(tbl, 0.10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// After many memory-bound epochs, one compute-bound epoch should not
	// immediately snap to the default level thanks to smoothing.
	for i := 0; i < 10; i++ {
		p.Decide(memoryStats(5))
	}
	lvl := p.Decide(computeStats(5))
	if lvl == tbl.Default() {
		t.Fatal("smoothing had no effect: single epoch flipped the decision")
	}
}

func TestPCSTALLValidation(t *testing.T) {
	tbl := clockdomain.TitanX()
	if _, err := NewPCSTALL(nil, 0.1, 1); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, err := NewPCSTALL(tbl, -0.1, 1); err == nil {
		t.Fatal("negative preset accepted")
	}
	if _, err := NewPCSTALL(tbl, 0.1, 0); err == nil {
		t.Fatal("zero clusters accepted")
	}
}

func TestFLEMMADecisionsInRange(t *testing.T) {
	tbl := clockdomain.TitanX()
	f, err := NewFLEMMA(tbl, 0.10, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	eps0 := f.Epsilon
	for epoch := 0; epoch < 200; epoch++ {
		for c := 0; c < 2; c++ {
			s := memoryStats(5)
			s.Cluster = c
			s.Epoch = epoch
			lvl := f.Decide(s)
			if lvl < 0 || lvl >= tbl.Len() {
				t.Fatalf("decision %d out of range", lvl)
			}
		}
	}
	// Each coarse-grained update decays the exploration rate.
	if f.Epsilon >= eps0 {
		t.Fatalf("epsilon %g after 200 epochs, not below its starting %g: no coarse-grained update ran", f.Epsilon, eps0)
	}
}

func TestFLEMMADeterministicWithSeed(t *testing.T) {
	tbl := clockdomain.TitanX()
	run := func() []int {
		f, err := NewFLEMMA(tbl, 0.10, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		var decisions []int
		for i := 0; i < 50; i++ {
			decisions = append(decisions, f.Decide(memoryStats(5)))
		}
		return decisions
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestFLEMMAEpsilonDecays(t *testing.T) {
	tbl := clockdomain.TitanX()
	f, err := NewFLEMMA(tbl, 0.10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	eps0 := f.Epsilon
	for i := 0; i < 100; i++ {
		f.Decide(memoryStats(5))
	}
	if f.Epsilon >= eps0 {
		t.Fatalf("epsilon did not decay: %g -> %g", eps0, f.Epsilon)
	}
}

func TestFLEMMAEventuallyExploitsPowerSavings(t *testing.T) {
	// Feed a stationary memory-bound workload where lower levels always
	// yield better reward; after warm-up, greedy decisions should prefer
	// low levels at least sometimes.
	tbl := clockdomain.TitanX()
	f, err := NewFLEMMA(tbl, 0.20, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	low := 0
	for i := 0; i < 600; i++ {
		s := memoryStats(5)
		// Reward shaping: lower level → lower power, same instructions.
		s.DynPowerW = 1 + float64(f.prev[0].action)
		lvl := f.Decide(s)
		if i > 400 && lvl <= 2 {
			low++
		}
	}
	if low == 0 {
		t.Fatal("RL never chose a low level on a stationary memory-bound workload")
	}
}

func TestFLEMMAValidation(t *testing.T) {
	tbl := clockdomain.TitanX()
	if _, err := NewFLEMMA(nil, 0.1, 1, 1); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, err := NewFLEMMA(tbl, -1, 1, 1); err == nil {
		t.Fatal("negative preset accepted")
	}
	if _, err := NewFLEMMA(tbl, 0.1, 0, 1); err == nil {
		t.Fatal("zero clusters accepted")
	}
}
