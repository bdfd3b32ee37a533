package gpusim

import (
	"slices"
	"testing"

	"ssmdvfs/internal/kernels"
)

// TestCloseOpenEpochEqualsRun: a simulator driven by hand through
// CloseEpoch and OpenEpoch, under the decisions toggleController would
// make, and handed on to a Clone taken between the two halves at every
// other boundary, produces the EpochStats stream — as CloseEpoch returns it
// and as the observer, which every Clone inherits, sees it — and the Result
// of SetController + Run, on every evaluation kernel.
func TestCloseOpenEpochEqualsRun(t *testing.T) {
	cfg := SmallConfig()
	ctrl := toggleController{levels: cfg.OPs.Len()}
	handOns := 0
	for _, spec := range kernels.Evaluation() {
		kernel := spec.Build(0.3)

		var want []EpochStats
		ref, err := New(cfg, kernel)
		if err != nil {
			t.Fatal(err)
		}
		ref.SetController(ctrl)
		ref.SetObserver(func(s EpochStats) { want = append(want, s) })
		wantRes := ref.Run(testMaxPs)

		var closed, observed []EpochStats
		sim, err := New(cfg, kernel)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetObserver(func(s EpochStats) { observed = append(observed, s) })
		levels := make([]int, cfg.Clusters)
		for {
			stats, ok := sim.CloseEpoch(testMaxPs)
			if !ok {
				break
			}
			closed = append(closed, stats...)
			for i, s := range stats {
				// A finished cluster's entry is ignored: poison it.
				levels[i] = -1 << 20
				if s.WarpsActive > 0 {
					levels[i] = ctrl.Decide(s)
				}
			}
			if stats[0].Epoch%2 == 1 {
				sim = sim.Clone()
				handOns++
			}
			sim.OpenEpoch(levels)
		}
		if res := sim.Run(testMaxPs); res != wantRes {
			t.Fatalf("%s: close/open run %+v, Run %+v", spec.Name, res, wantRes)
		}
		if !slices.Equal(closed, want) {
			t.Fatalf("%s: CloseEpoch returned another stream than Run's observer saw", spec.Name)
		}
		if !slices.Equal(observed, want) {
			t.Fatalf("%s: the observer saw another stream across close/open and Clone than under Run", spec.Name)
		}
	}
	if handOns < 2*len(kernels.Evaluation()) {
		t.Fatalf("the runs were handed on to a Clone %d times in all, too few to show anything", handOns)
	}
}

// TestEpochHalvesAlternate: the two halves come in pairs, and a simulator
// cannot run on with an epoch closed and not opened.
func TestEpochHalvesAlternate(t *testing.T) {
	sim, err := New(SmallConfig(), computeTestKernel(20000))
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("OpenEpoch before any CloseEpoch", func() { sim.OpenEpoch(nil) })
	if _, ok := sim.CloseEpoch(sim.cfg.EpochPs - 1); ok {
		t.Fatal("CloseEpoch closed an epoch that ends past its limit")
	}
	if _, ok := sim.CloseEpoch(testMaxPs); !ok {
		t.Fatal("CloseEpoch did not reach the first boundary")
	}
	mustPanic("CloseEpoch on a closed epoch", func() { sim.CloseEpoch(testMaxPs) })
	mustPanic("RunUntil on a closed epoch", func() { sim.RunUntil(testMaxPs) })
	sim.Clone().OpenEpoch(nil)
	sim.OpenEpoch(nil)
	if res := sim.Run(testMaxPs); !res.Completed {
		t.Fatal("run did not complete after the hand-stepped epoch")
	}
}
