package counters

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/isa"
)

func sampleStats() gpusim.EpochStats {
	s := gpusim.EpochStats{
		Cluster:      1,
		Epoch:        3,
		Level:        4,
		OP:           clockdomain.TitanX().Point(4),
		Instructions: 20000,
		Cycles:       11000,
		ActiveCycles: 9000,
		StallMemLoad: 3000, StallMemOther: 500,
		StallCompute: 2000, StallControl: 400,
		L1ReadHits: 1500, L1ReadMisses: 500,
		L1WriteAccesses: 200,
		L2Accesses:      700, L2Hits: 400, L2Misses: 300,
		DRAMLines:   300,
		SharedLoads: 50,
		WarpsActive: 16,
		DynPowerW:   4.5, StaticPowerW: 1.8,
		EnergyPJ: 6.3e7,
	}
	s.OpCounts[isa.OpIAlu] = 6000
	s.OpCounts[isa.OpFAlu] = 10000
	s.OpCounts[isa.OpLoadGlobal] = 2000
	s.OpCounts[isa.OpStoreGlobal] = 1000
	s.OpCounts[isa.OpBranch] = 1000
	return s
}

func TestExactly47Counters(t *testing.T) {
	names := Names()
	if len(names) != 47 || Num != 47 {
		t.Fatalf("counter count = %d, want 47", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || seen[n] {
			t.Fatalf("empty or duplicate counter name %q", n)
		}
		seen[n] = true
	}
}

func TestIndexRoundTrip(t *testing.T) {
	for i, name := range Names() {
		got, err := Index(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != i {
			t.Fatalf("Index(%q) = %d, want %d", name, got, i)
		}
	}
	if _, err := Index("nope"); err == nil {
		t.Fatal("unknown counter accepted")
	}
}

func TestSelectedFiveMatchesTableI(t *testing.T) {
	five := SelectedFive()
	wantNames := []string{"ipc", "ppc_total_w", "stall_mem_hazard", "stall_mem_other", "l1_read_misses"}
	if len(five) != len(wantNames) {
		t.Fatalf("SelectedFive has %d entries", len(five))
	}
	for i, idx := range five {
		if Def(idx).Name != wantNames[i] {
			t.Fatalf("selected[%d] = %q, want %q", i, Def(idx).Name, wantNames[i])
		}
	}
	// Category split per Table I: IPC instruction, PPC power, rest stall.
	if Def(five[0]).Category != Instruction || Def(five[1]).Category != Power {
		t.Fatal("IPC/PPC categories wrong")
	}
	for _, idx := range five[2:] {
		if Def(idx).Category != Stall {
			t.Fatalf("%q category = %v, want stall", Def(idx).Name, Def(idx).Category)
		}
	}
}

func TestFromStatsValues(t *testing.T) {
	s := sampleStats()
	v := FromStats(s)
	if len(v) != Num {
		t.Fatalf("vector length %d", len(v))
	}
	if got, want := v[IdxIPC], 20000.0/11000.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("IPC = %g, want %g", got, want)
	}
	if got, want := v[IdxPPC], 6.3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("PPC = %g, want %g", got, want)
	}
	if v[IdxMH] != 3000 || v[IdxMHNL] != 500 || v[IdxL1CRM] != 500 {
		t.Fatalf("MH/MH\\L/L1CRM = %g/%g/%g", v[IdxMH], v[IdxMHNL], v[IdxL1CRM])
	}
	// Spot-check a few derived counters by name.
	check := func(name string, want float64) {
		t.Helper()
		i, err := Index(name)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v[i]-want) > 1e-9 {
			t.Fatalf("%s = %g, want %g", name, v[i], want)
		}
	}
	check("instructions", 20000)
	check("l1_read_miss_rate", 0.25)
	check("l2_miss_rate", 300.0/700.0)
	check("frac_mem", 3000.0/20000.0)
	check("freq_mhz", 1100)
	check("voltage_v", 1.1)
	check("op_level", 4)
}

func TestFromStatsZeroSafe(t *testing.T) {
	v := FromStats(gpusim.EpochStats{OP: clockdomain.TitanX().Point(0)})
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("counter %d (%s) is not finite on zero stats", i, Def(i).Name)
		}
	}
}

func TestScalerNormalizes(t *testing.T) {
	rows := [][]float64{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
	s, err := FitScaler(rows)
	if err != nil {
		t.Fatal(err)
	}
	out := s.TransformAll(rows)
	for col := 0; col < 2; col++ {
		var mean, varsum float64
		for _, r := range out {
			mean += r[col]
		}
		mean /= float64(len(out))
		for _, r := range out {
			d := r[col] - mean
			varsum += d * d
		}
		std := math.Sqrt(varsum / float64(len(out)))
		if math.Abs(mean) > 1e-9 || math.Abs(std-1) > 1e-9 {
			t.Fatalf("column %d: mean=%g std=%g after scaling", col, mean, std)
		}
	}
}

func TestScalerConstantColumn(t *testing.T) {
	rows := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	s, err := FitScaler(rows)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Transform([]float64{5, 2})
	if out[0] != 0 {
		t.Fatalf("constant column transformed to %g, want 0", out[0])
	}
	if math.IsNaN(out[1]) {
		t.Fatal("NaN in scaled output")
	}
}

func TestScalerErrors(t *testing.T) {
	if _, err := FitScaler(nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	if _, err := FitScaler([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

func TestSelect(t *testing.T) {
	row := []float64{10, 11, 12, 13, 14}
	got := Select(row, []int{4, 0, 2})
	want := []float64{14, 10, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Select = %v, want %v", got, want)
		}
	}
}

func TestScalerFinitenessProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]float64, int(n%20)+2)
		for i := range rows {
			rows[i] = []float64{rng.NormFloat64() * 1e6, rng.Float64(), 42}
		}
		s, err := FitScaler(rows)
		if err != nil {
			return false
		}
		for _, r := range s.TransformAll(rows) {
			for _, x := range r {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}
