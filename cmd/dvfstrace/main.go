// Command dvfstrace runs a single kernel under one DVFS mechanism and
// dumps the per-epoch, per-cluster trace as CSV — one row per cluster
// epoch, its 47 counters exactly as counters.FromStats computes them for
// the controller — plus a terminal summary: level histogram, cluster-0
// level timeline, IPC/power sparklines, and stall-cycle breakdown. It is
// the microscope for inspecting what a controller actually did, and its
// CSV replays into "dvfsload -trace" and "dvfsstat -trace".
//
// Usage:
//
//	dvfstrace -kernel rodinia.srad -mech ssmdvfs -preset 0.10 \
//	          -cache ssmdvfs-cache [-quick] [-o trace.csv]
//	          [-telemetry telem.json] [-v]
//
// Mechanisms are the controllers of experiments.NewController: baseline,
// pcstall, flemma, ssmdvfs, ssmdvfs-nocal, ssmdvfs-compressed, static-N
// (fixed level N of the operating-point table). Any other name is
// refused before anything is trained or simulated.
//
// With -telemetry the series of the pipeline logger and, under
// -flightrec, of the provenance monitor land in FILE — summarize with
// "dvfsstat -metrics FILE". The simulator's epochs are in the trace,
// not there.
//
// With -flightrec (ssmdvfs mechanisms only) every controller decision is
// captured in a provenance flight recorder — raw counters, derived
// features, logits, calibration state, reason — and dumped to FILE as
// JSONL at exit; summarize with "dvfsstat -decisions FILE". In the
// simulator the trace itself is ground truth, so the dump supports
// offline audits of exactly what the model saw and answered.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ssmdvfs/internal/atomicfile"
	"ssmdvfs/internal/buildinfo"
	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/epochtrace"
	"ssmdvfs/internal/experiments"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/kernels"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
	"ssmdvfs/internal/viz"
)

func main() {
	var (
		kernelName = flag.String("kernel", "rodinia.srad", "kernel name (see internal/kernels)")
		mech       = flag.String("mech", "ssmdvfs", "mechanism: baseline|pcstall|flemma|ssmdvfs|ssmdvfs-nocal|ssmdvfs-compressed|static-N")
		preset     = flag.Float64("preset", 0.10, "performance-loss preset")
		cache      = flag.String("cache", "ssmdvfs-cache", "artifact cache directory (for ssmdvfs mechanisms)")
		quick      = flag.Bool("quick", true, "use the reduced GPU configuration")
		out        = flag.String("o", "", "trace output path (default: stdout summary only)")
		seed       = flag.Int64("seed", 1, "seed for stochastic mechanisms")
		telemOut   = flag.String("telemetry", "", "write a telemetry snapshot (logger and monitor series) here")
		flightrec  = flag.String("flightrec", "", "write a decision-provenance flight-recorder dump (JSONL) here (ssmdvfs mechanisms)")
		verbose    = flag.Bool("v", false, "log pipeline progress to stderr")
		version    = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("dvfstrace", buildinfo.String())
		return
	}

	if err := run(*kernelName, *mech, *preset, *cache, *quick, *out, *seed, *telemOut, *flightrec, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "dvfstrace:", err)
		os.Exit(1)
	}
}

// flightrecCap bounds the in-memory flight recorder: the last 64Ki
// decisions, plenty for a quick-config run while keeping the ring flat.
const flightrecCap = 1 << 16

func run(kernelName, mech string, preset float64, cache string, quick bool, out string, seed int64, telemOut, flightrec string, verbose bool) error {
	opts := experiments.DefaultPipelineOptions()
	if quick {
		opts = experiments.QuickPipelineOptions()
	}
	opts.CacheDir = cache
	var logOut io.Writer
	if verbose {
		logOut = os.Stderr
	}
	var reg *telemetry.Registry
	if telemOut != "" {
		reg = telemetry.NewRegistry()
	}
	opts.Logger = telemetry.NewLogger(logOut, reg)

	spec, err := kernels.ByName(kernelName)
	if err != nil {
		return err
	}
	kernel := spec.Build(opts.Scale)

	ctrl, err := buildController(mech, preset, opts, seed)
	if err != nil {
		return err
	}

	var rec *provenance.Recorder
	var hdr provenance.Header
	if flightrec != "" {
		// Only the SSMDVFS controller records decision provenance; the
		// dump header attributes the records to the model behind it.
		ssm, ok := ctrl.(*core.Controller)
		if !ok {
			return fmt.Errorf("-flightrec needs an ssmdvfs mechanism (%q keeps no decision provenance)", mech)
		}
		hdr = ssm.Model().ProvenanceHeader()
		rec = provenance.NewRecorder(flightrecCap)
		var mon *provenance.Monitor
		if reg != nil {
			mon = provenance.NewMonitor(reg, provenance.MonitorOptions{})
			mon.SetTrainingStats(ssm.Model().TrainingStats())
		}
		ssm.SetProvenance(rec, mon)
	}

	sim, err := gpusim.New(opts.Sim, kernel)
	if err != nil {
		return err
	}
	trace := &epochtrace.Trace{}
	sim.SetObserver(trace.Observe)
	if ctrl != nil {
		sim.SetController(ctrl)
	}
	res := sim.Run(gpusim.DefaultMaxRunPs)
	if !res.Completed {
		return fmt.Errorf("kernel did not complete")
	}

	if out != "" {
		if err := atomicfile.Write(out, trace.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", len(trace.Records), out)
	}
	if reg != nil {
		if err := atomicfile.Write(telemOut, reg.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote telemetry snapshot to %s\n", telemOut)
	}
	if rec != nil {
		if err := provenance.WriteFile(flightrec, hdr, rec); err != nil {
			return err
		}
		kept := int(rec.Head())
		if kept > rec.Cap() {
			kept = rec.Cap()
		}
		fmt.Fprintf(os.Stderr, "wrote %d decision records (of %d made) to %s\n", kept, rec.Head(), flightrec)
	}

	return summarize(os.Stdout, kernelName, mech, opts.Sim, trace, res)
}

// buildController resolves the mechanism through experiments.NewController,
// the one name→controller factory, running the pipeline first only for the
// three mechanisms that need its models.
func buildController(mech string, preset float64, opts experiments.PipelineOptions, seed int64) (gpusim.Controller, error) {
	m := experiments.Mechanism(mech)
	grid := experiments.Fig4Options{Sim: opts.Sim, Seed: seed}
	switch m {
	case experiments.MechStaticBest, experiments.MechOracleGreedy:
		return nil, fmt.Errorf("%s is a search over whole runs, not a controller to trace (see \"ssmdvfs headroom\")", m)
	case experiments.MechSSMDVFS, experiments.MechSSMDVFSNoCal, experiments.MechSSMDVFSComp:
		pipeline, err := experiments.RunPipeline(opts)
		if err != nil {
			return nil, err
		}
		grid.Model, grid.Compressed = pipeline.Model, pipeline.Compressed
	}
	return experiments.NewController(m, preset, grid)
}

func summarize(w *os.File, kernel, mech string, cfg gpusim.Config, trace *epochtrace.Trace, res gpusim.Result) error {
	fmt.Fprintf(w, "kernel=%s mechanism=%s\n", kernel, mech)
	fmt.Fprintf(w, "exec=%.1fus energy=%.2fmJ edp=%.3e J·s transitions=%d epochs=%d\n\n",
		float64(res.ExecTimePs)/1e6, res.EnergyPJ/1e9, res.EDP(), res.Transitions, res.Epochs)

	labels := make([]string, cfg.OPs.Len())
	for i := range labels {
		labels[i] = cfg.OPs.Point(i).String()
	}
	if err := viz.Histogram(w, "epochs per operating point:", labels, trace.LevelHistogram(cfg.OPs.Len()), 40); err != nil {
		return err
	}

	c0 := trace.Cluster(0)
	if len(c0) > 0 {
		levels := make([]int, len(c0))
		ipc := make([]float64, len(c0))
		power := make([]float64, len(c0))
		for i, r := range c0 {
			levels[i] = r.Level()
			ipc[i] = r.Counters[counters.IdxIPC]
			power[i] = r.Counters[counters.IdxPPC]
		}
		fmt.Fprintf(w, "\ncluster 0 levels: %s\n", viz.LevelTimeline(levels, 8))
		fmt.Fprintf(w, "cluster 0 IPC:    %s\n", viz.Sparkline(ipc))
		fmt.Fprintf(w, "cluster 0 power:  %s  (mean %.1f W)\n", viz.Sparkline(power), trace.MeanPowerW())
	}

	sums := make([]float64, len(stallColumns))
	var total float64
	for i, idx := range stallColumns {
		sums[i] = trace.Sum(idx)
		total += sums[i]
	}
	fmt.Fprintln(w, "\nstall cycles, all clusters:")
	for i, idx := range stallColumns {
		share := 0.0
		if total > 0 {
			share = sums[i] / total * 100
		}
		fmt.Fprintf(w, "  %-18s %14.0f %6.1f%%\n", counters.Def(idx).Name, sums[i], share)
	}
	return nil
}

// stallColumns are the trace's six stall-cycle counters.
var stallColumns = []int{
	counters.IdxMH, counters.IdxMHNL, counters.IdxStallCompute,
	counters.IdxStallControl, counters.IdxReadyNotIssued, counters.IdxDVFSStall,
}
