package gpusim

import (
	"slices"
	"testing"

	"ssmdvfs/internal/kernels"
)

// checkNothingPending fails when a cluster of sim still holds L2/DRAM
// traffic it has not performed, or when an unresolvedPs placeholder is left
// in a scoreboard or an outstanding queue. Clone copies scoreboards and
// queues but no pending traffic, so this is what keeps a Clone taken
// between calls exact.
func checkNothingPending(t *testing.T, when string, sim *Simulator) {
	t.Helper()
	for i, c := range sim.clusters {
		if len(c.pending) > 0 || len(c.pendingLines) > 0 {
			t.Fatalf("%s: cluster %d holds %d memory ops over %d lines not performed", when, i, len(c.pending), len(c.pendingLines))
		}
		if slices.Contains(c.outstandingLoads, unresolvedPs) || slices.Contains(c.outstandingStores, unresolvedPs) {
			t.Fatalf("%s: cluster %d has a placeholder in an outstanding queue", when, i)
		}
		for w := range c.warps {
			if slices.Contains(c.warps[w].regReadyPs[:], unresolvedPs) {
				t.Fatalf("%s: cluster %d warp %d has a placeholder in its scoreboard", when, i, w)
			}
		}
	}
}

// TestNoPendingTrafficBetweenCalls: whenever CloseEpoch, RunUntil or Run
// returns — at a boundary, at a limit inside an epoch, with every warp
// finished — every cluster's memory traffic has been performed, on both
// machine sizes and the memory-heavy kernels, where traffic waits on other
// clusters most often.
func TestNoPendingTrafficBetweenCalls(t *testing.T) {
	for _, cfg := range []Config{SmallConfig(), TitanXConfig()} {
		for _, name := range titanXStreamKernels {
			spec, err := kernels.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := New(cfg, spec.Build(0.2))
			if err != nil {
				t.Fatal(err)
			}
			var l2 int64
			sim.SetObserver(func(s EpochStats) { l2 += s.L2Accesses })
			sim.SetController(toggleController{levels: cfg.OPs.Len()})
			when := func(what string) string { return name + " " + what }

			if _, ok := sim.CloseEpoch(cfg.EpochPs / 3); ok {
				t.Fatalf("%s: CloseEpoch closed an epoch past its limit", name)
			}
			checkNothingPending(t, when("CloseEpoch stopped at its limit"), sim)
			if _, ok := sim.CloseEpoch(testMaxPs); !ok {
				t.Fatalf("%s: CloseEpoch did not reach the first boundary", name)
			}
			checkNothingPending(t, when("CloseEpoch at a boundary"), sim)
			sim.OpenEpoch(nil)

			// Targets off the epoch and cycle lattices.
			target := cfg.EpochPs
			for i := 0; i < 3 && !sim.Done(); i++ {
				target += cfg.EpochPs*7/5 + 777
				sim.RunUntil(target)
				checkNothingPending(t, when("RunUntil"), sim)
			}

			replay := sim.Clone()
			replay.ForceLevel(0)
			replay.Run(target + cfg.EpochPs/2)
			checkNothingPending(t, when("Run cut off by its limit"), replay)

			if res := sim.Run(testMaxPs); !res.Completed {
				t.Fatalf("%s: did not complete", name)
			}
			checkNothingPending(t, when("Run to completion"), sim)
			if l2 == 0 {
				t.Fatalf("%s: no L2 traffic at all, so nothing was ever pending", name)
			}
		}
	}
}

// TestWarmStepAllocatesNothing: once the first epoch has sized the
// simulator's scratch, stepping — pending traffic, resolve and the epoch
// boundaries included — allocates nothing.
func TestWarmStepAllocatesNothing(t *testing.T) {
	cfg := SmallConfig()
	for _, name := range []string{"polybench.atax", "parboil.stencil", "rodinia.pathfinder"} {
		spec, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(cfg, spec.Build(1.0))
		if err != nil {
			t.Fatal(err)
		}
		sim.SetController(toggleController{levels: cfg.OPs.Len()})
		target := cfg.EpochPs
		sim.RunUntil(target)
		allocs := testing.AllocsPerRun(20, func() {
			target += cfg.EpochPs / 2
			sim.RunUntil(target)
		})
		if sim.Done() {
			t.Fatalf("%s finished inside the measurement: too short to show anything", name)
		}
		if allocs != 0 {
			t.Fatalf("%s: %.1f allocations per half epoch, want 0", name, allocs)
		}
	}
}
