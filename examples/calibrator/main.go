// Calibrator demonstrates the self-calibration mechanism on an
// adversarial phase-alternating kernel: the Decision-maker's frequency
// choices lag phase changes, and the Calibrator's instruction-count
// feedback tightens the effective performance-loss preset whenever the
// core runs slower than predicted, pulling latency back under the
// budget. The example traces cluster 0's effective preset and chosen
// level epoch by epoch, with and without calibration.
//
//	go run ./examples/calibrator
package main

import (
	"fmt"
	"log"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/experiments"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/kernels"
)

func main() {
	opts := experiments.QuickPipelineOptions()
	pipeline, err := experiments.RunPipeline(opts)
	if err != nil {
		log.Fatal(err)
	}

	// The backprop kernel alternates compute-heavy and memory-heavy
	// phases every few epochs, which makes the Decision-maker's choices
	// lag and gives the Calibrator something to correct.
	spec, err := kernels.ByName("rodinia.backprop")
	if err != nil {
		log.Fatal(err)
	}
	kernel := spec.Build(opts.Scale)

	baseSim, err := gpusim.New(opts.Sim, kernel)
	if err != nil {
		log.Fatal(err)
	}
	base := baseSim.Run(gpusim.DefaultMaxRunPs)

	const preset = 0.10
	for _, calibrate := range []bool{false, true} {
		ctrl, err := core.NewController(pipeline.Model, preset, opts.Sim.Clusters, calibrate)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := gpusim.New(opts.Sim, kernel)
		if err != nil {
			log.Fatal(err)
		}
		sim.SetController(ctrl)

		fmt.Printf("\n== %s ==\n", ctrl.Name())
		fmt.Printf("%6s %6s %10s %12s %8s\n", "epoch", "level", "IPC", "eff.preset", "power")
		sim.SetObserver(func(s gpusim.EpochStats) {
			if s.Cluster != 0 {
				return
			}
			fmt.Printf("%6d %6d %10.2f %11.2f%% %7.1fW\n",
				s.Epoch, s.Level, s.IPC(), ctrl.EffectivePreset(0)*100, s.PowerW())
		})
		res := sim.Run(gpusim.DefaultMaxRunPs)

		loss := float64(res.ExecTimePs-base.ExecTimePs) / float64(base.ExecTimePs)
		fmt.Printf("-> exec %.1fµs, loss %+.2f%% (preset %.0f%%), EDP %.3f of baseline\n",
			float64(res.ExecTimePs)/1e6, loss*100, preset*100, res.EDP()/base.EDP())
	}
}
