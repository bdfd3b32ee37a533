package datagen

import (
	"reflect"
	"testing"

	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/kernels"
)

// quickConfig is the quick pipeline's datagen setup (experiments'
// QuickPipelineOptions): the small GPU, 50 µs breakpoints, two per kernel.
func quickConfig() Config {
	cfg := DefaultConfig(gpusim.SmallConfig())
	cfg.BreakpointPs = 50_000_000
	cfg.MaxBreakpoints = 2
	return cfg
}

// TestReferenceReplayIsT0 is what lets generate skip one replay's tail.
// With the feature window and the scaling window both at the default level
// every ForceLevel is a no-op, so that replay is the reference run: for
// every training kernel at the quick scale and every breakpoint, its full
// run completes at T0, and its scaling window's statistics are those of a
// replay stopped at the end of the window, which is what generate keeps of
// it (scalingWindow).
func TestReferenceReplayIsT0(t *testing.T) {
	cfg := quickConfig()
	epochPs := cfg.Sim.EpochPs
	def := cfg.Sim.OPs.Default()
	for _, spec := range kernels.Training() {
		ref, err := gpusim.New(cfg.Sim, spec.Build(0.4))
		if err != nil {
			t.Fatal(err)
		}
		master := ref.Clone()
		t0 := ref.Run(cfg.MaxRunPs).ExecTimePs

		bps := cfg.breakpoints(t0)
		for i, b := range bps {
			master.RunUntil(b)
			fsim := master.Clone()
			fsim.ForceLevel(def)
			fsim.RunUntil(b + epochPs + 1)

			_, short := scalingWindow(fsim, b, epochPs, def)

			full := fsim.Clone()
			fullRec := newEpochRecorder(short.epoch)
			full.SetObserver(fullRec.observe)
			full.ForceLevel(def)
			full.RunUntil(b + 2*epochPs + 1)
			full.ForceLevel(def)
			res := full.Run(cfg.MaxRunPs)

			if !res.Completed || res.ExecTimePs != t0 {
				t.Errorf("%s breakpoint %d: default replay ends at %d ps (completed %t), T0 is %d ps",
					spec.Name, i+1, res.ExecTimePs, res.Completed, t0)
			}
			if len(short.stats) == 0 || !reflect.DeepEqual(fullRec.stats, short.stats) {
				t.Errorf("%s breakpoint %d: scaling-window statistics differ between the full replay and scalingWindow's",
					spec.Name, i+1)
			}
		}
		if len(bps) == 0 {
			t.Errorf("%s: no breakpoint at T0 = %d ps", spec.Name, t0)
		}
	}
}
