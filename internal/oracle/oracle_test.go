package oracle

import (
	"testing"

	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/isa"
)

func memKernel(iters int) gpusim.Kernel {
	prog := isa.Program{
		Body: []isa.Instruction{
			{Op: isa.OpLoadGlobal, Dst: 1, Mem: isa.MemSpec{
				Base: 0x1000_0000, FootprintBytes: 64 << 20, StrideBytes: 256,
				WarpStrideBytes: 1 << 16, CoalescedLines: 8, Pattern: isa.PatternSequential,
			}},
			{Op: isa.OpFAlu, Dst: 2, SrcA: 1},
		},
		Iterations: iters,
	}
	return gpusim.Kernel{Name: "oracle-mem", WarpsPerCluster: 8, Programs: []isa.Program{prog}}
}

func cpuKernel(iters int) gpusim.Kernel {
	prog := isa.Program{
		Body: []isa.Instruction{
			{Op: isa.OpFAlu, Dst: 1, SrcA: 1},
			{Op: isa.OpFAlu, Dst: 2, SrcA: 2},
			{Op: isa.OpFAlu, Dst: 3, SrcA: 3},
		},
		Iterations: iters,
	}
	return gpusim.Kernel{Name: "oracle-cpu", WarpsPerCluster: 8, Programs: []isa.Program{prog}}
}

func cfg() gpusim.Config {
	c := gpusim.SmallConfig()
	c.Clusters = 2
	return c
}

// staticBest is the static-best search end to end: the default-level run,
// the other levels' runs, and the pick under maxLoss.
func staticBest(t *testing.T, c gpusim.Config, k gpusim.Kernel, maxLoss float64, obj Objective) ([]gpusim.Result, int) {
	t.Helper()
	const maxPs = 1_000_000_000_000
	sim, err := gpusim.New(c, k)
	if err != nil {
		t.Fatal(err)
	}
	results, err := StaticRuns(c, k, sim.Run(maxPs), maxPs)
	if err != nil {
		t.Fatal(err)
	}
	return results, StaticPick(results, c.OPs.Default(), maxLoss, obj)
}

// TestStaticRunsDefaultLevelIsTheBaseline: the run StaticRuns does not
// make, the default level forced at t = 0, is the run it is handed.
func TestStaticRunsDefaultLevelIsTheBaseline(t *testing.T) {
	c := cfg()
	for _, k := range []gpusim.Kernel{memKernel(100), cpuKernel(500)} {
		results, _ := staticBest(t, c, k, 0, nil)
		forced, err := gpusim.New(c, k)
		if err != nil {
			t.Fatal(err)
		}
		forced.ForceLevel(c.OPs.Default())
		if got := forced.Run(1_000_000_000_000); got != results[c.OPs.Default()] {
			t.Fatalf("%s: default level forced at t=0 gives %+v, the baseline %+v", k.Name, got, results[c.OPs.Default()])
		}
	}
}

func TestStaticBestMemoryBoundPicksLowLevel(t *testing.T) {
	c := cfg()
	results, best := staticBest(t, c, memKernel(300), 0.10, EDPObjective)
	if len(results) != c.OPs.Len() {
		t.Fatalf("got %d results", len(results))
	}
	if best > 1 {
		t.Fatalf("memory-bound static best = level %d, want near 0", best)
	}
}

func TestStaticBestComputeBoundRespectsBudget(t *testing.T) {
	c := cfg()
	results, best := staticBest(t, c, cpuKernel(2000), 0.05, EDPObjective)
	baseT := results[c.OPs.Default()].ExecTimePs
	loss := float64(results[best].ExecTimePs-baseT) / float64(baseT)
	if loss > 0.05+1e-9 {
		t.Fatalf("static best level %d loses %.2f%%, budget 5%%", best, loss*100)
	}
}

func TestStaticBestObjectives(t *testing.T) {
	c := cfg()
	_, bestEDP := staticBest(t, c, memKernel(200), 0.20, EDPObjective)
	_, bestE := staticBest(t, c, memKernel(200), 0.20, func(res gpusim.Result) float64 { return res.EnergyPJ })
	// Energy minimization never prefers a faster level than EDP
	// minimization (speed only helps the delay term).
	if bestE > bestEDP {
		t.Fatalf("energy-best level %d faster than EDP-best %d", bestE, bestEDP)
	}
}

func TestGreedyBeatsOrMatchesDefaultEDP(t *testing.T) {
	c := cfg()
	k := memKernel(250)
	base, _ := staticBest(t, c, k, 0, EDPObjective)
	defRes := base[c.OPs.Default()]

	res, err := Greedy(c, k, GreedyOptions{Preset: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Result.Completed {
		t.Fatal("greedy run incomplete")
	}
	if res.Probes == 0 || len(res.Levels) == 0 {
		t.Fatal("greedy did no probing")
	}
	// The clairvoyant policy may not beat static-min on a uniformly
	// memory-bound kernel, but it must never be much worse than default.
	if res.Result.EDP() > defRes.EDP()*1.02 {
		t.Fatalf("greedy EDP %.3g worse than default %.3g", res.Result.EDP(), defRes.EDP())
	}
	// On a memory-bound kernel the oracle should pick low levels mostly.
	low := 0
	for _, l := range res.Levels {
		if l <= 1 {
			low++
		}
	}
	if low*2 < len(res.Levels) {
		t.Fatalf("oracle chose low levels only %d/%d times on a memory-bound kernel", low, len(res.Levels))
	}
}

// TestGreedyComputeBoundStaysWithinPreset is the regression test for the
// horizon bug: scoring truncated probes made every level look free, so on
// a compute-bound kernel longer than the horizon (this one is 10 epochs;
// a 5-epoch horizon cost it +32.9% latency, EDP 1.256) the "oracle" ran at
// level 0 and blew its preset.
func TestGreedyComputeBoundStaysWithinPreset(t *testing.T) {
	c := cfg()
	k := cpuKernel(10000)
	perLevel, _ := staticBest(t, c, k, 0, EDPObjective)
	def := perLevel[c.OPs.Default()]
	const preset = 0.10
	res, err := Greedy(c, k, GreedyOptions{Preset: preset})
	if err != nil {
		t.Fatal(err)
	}
	if loss := float64(res.Result.ExecTimePs)/float64(def.ExecTimePs) - 1; loss > preset+1e-9 {
		t.Fatalf("greedy loses %.2f%% under a %.0f%% preset (levels %v)", loss*100, preset*100, res.Levels)
	}
	if res.Result.EDP() > def.EDP() {
		t.Fatalf("greedy EDP %.4g worse than the default level's %.4g (levels %v)", res.Result.EDP(), def.EDP(), res.Levels)
	}
}

func TestGreedyRejectsNegativePreset(t *testing.T) {
	if _, err := Greedy(cfg(), memKernel(10), GreedyOptions{Preset: -1}); err == nil {
		t.Fatal("negative preset accepted")
	}
}
