// Quickstart: build the SSMDVFS models end-to-end on a small simulated
// GPU, then drive one held-out kernel with the trained controller and
// compare energy-delay product against running at the default V/f point.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/experiments"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/kernels"
	"ssmdvfs/internal/telemetry"
)

func main() {
	// 1. Build the models: data generation on the training kernels,
	// supervised training of the Decision-maker and Calibrator, then
	// compression. QuickPipelineOptions uses a 4-cluster GPU and short
	// kernels so this takes tens of seconds, not minutes.
	opts := experiments.QuickPipelineOptions()
	opts.Logger = telemetry.NewLoggerFunc(log.Printf, nil)
	pipeline, err := experiments.RunPipeline(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained model:    accuracy %.1f%%, MAPE %.1f%%, %d FLOPs\n",
		pipeline.Report.Accuracy*100, pipeline.Report.MAPE, pipeline.Report.FLOPs)
	fmt.Printf("compressed model: accuracy %.1f%%, MAPE %.1f%%, %d effective FLOPs\n\n",
		pipeline.CompressedReport.Accuracy*100, pipeline.CompressedReport.MAPE,
		pipeline.Compressed.EffectiveFLOPs())

	// 2. Pick a held-out kernel the model never saw during training.
	spec := kernels.Evaluation()[0]
	kernel := spec.Build(opts.Scale)
	fmt.Printf("evaluation kernel: %s (%s)\n\n", spec.Name, spec.Behaviour)

	// 3. Baseline: the whole program at the default operating point.
	baseSim, err := gpusim.New(opts.Sim, kernel)
	if err != nil {
		log.Fatal(err)
	}
	base := baseSim.Run(gpusim.DefaultMaxRunPs)

	// 4. SSMDVFS with a 10% performance-loss preset.
	ctrl, err := core.NewController(pipeline.Compressed, 0.10, opts.Sim.Clusters, true)
	if err != nil {
		log.Fatal(err)
	}
	dvfsSim, err := gpusim.New(opts.Sim, kernel)
	if err != nil {
		log.Fatal(err)
	}
	dvfsSim.SetController(ctrl)
	dvfs := dvfsSim.Run(gpusim.DefaultMaxRunPs)

	// 5. Compare.
	fmt.Printf("%-12s %12s %12s %12s\n", "", "time (µs)", "energy (mJ)", "EDP (norm)")
	fmt.Printf("%-12s %12.1f %12.2f %12.3f\n", "baseline",
		float64(base.ExecTimePs)/1e6, base.EnergyPJ/1e9, 1.0)
	fmt.Printf("%-12s %12.1f %12.2f %12.3f\n", "ssmdvfs",
		float64(dvfs.ExecTimePs)/1e6, dvfs.EnergyPJ/1e9, dvfs.EDP()/base.EDP())
	loss := float64(dvfs.ExecTimePs-base.ExecTimePs) / float64(base.ExecTimePs)
	fmt.Printf("\nperformance loss %.2f%% (preset 10%%), %d V/f transitions, %d model inferences\n",
		loss*100, dvfs.Transitions, ctrl.Inferences())
}
