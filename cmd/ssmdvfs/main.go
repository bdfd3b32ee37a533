// Command ssmdvfs is the project CLI: it builds the SSMDVFS models
// end-to-end (data generation → training → compression) and runs every
// experiment from the paper's evaluation.
//
// Usage:
//
//	ssmdvfs pipeline -cache DIR [-quick] [-scale F]
//	ssmdvfs fig4     -cache DIR [-quick] [-presets 0.10,0.20]
//	ssmdvfs table1   -cache DIR
//	ssmdvfs table2   -cache DIR [-quick]
//	ssmdvfs fig3     -cache DIR [-quick]
//	ssmdvfs asic     -cache DIR
//	ssmdvfs sweep    -cache DIR [-quick]    (extension: EDP vs preset)
//	ssmdvfs headroom -cache DIR [-quick]    (extension: oracle headroom)
//	ssmdvfs quant    -cache DIR [-quick]    (extension: quantization)
//	ssmdvfs all      -cache DIR [-quick]
//
// fig4, sweep and headroom are one harness, experiments.RunFig4, over
// three mechanism lists: the paper's six at -presets; ssmdvfs-compressed
// at seven presets from 2 % to 50 % (summary table only); and ssmdvfs
// beside the clairvoyant static-best and oracle-greedy searches at the
// 10 % preset on six held-out programs. A kernel's cells share simulators
// and fork them only where their decisions part; each of the three prints
// what that saved as "simulated N of M epochs, K clones", and fig4.json
// carries the counts.
//
// The cache directory holds dataset.json, model.json and compressed.json;
// every subcommand builds missing artifacts on demand.
//
// Parallelism (any subcommand):
//
//	-j N              shard independent simulation units (per-kernel
//	                  datagen, fig3 points, the fig4/sweep/headroom
//	                  grid's groups of cells still on one simulator)
//	                  across N workers; defaults to runtime.NumCPU().
//	                  Output is byte-identical at any worker count.
//
// Observability flags (any subcommand):
//
//	-telemetry FILE   write the telemetry-registry snapshot (JSON) at exit;
//	                  summarize with "dvfsstat -metrics FILE"
//	-spans FILE       write pipeline phase spans and one span per shard
//	                  or grid group (JSONL); view with
//	                  "dvfsstat -spans FILE [-chrome out.json]"
//	-cpuprofile FILE  CPU profile of the whole run
//	-memprofile FILE  heap profile at exit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"ssmdvfs/internal/atomicfile"
	"ssmdvfs/internal/buildinfo"
	"ssmdvfs/internal/experiments"
	"ssmdvfs/internal/features"
	"ssmdvfs/internal/kernels"
	"ssmdvfs/internal/telemetry"
	"ssmdvfs/internal/viz"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "version" || cmd == "-version" || cmd == "--version" {
		fmt.Println("ssmdvfs", buildinfo.String())
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	cache := fs.String("cache", "ssmdvfs-cache", "artifact cache directory")
	quick := fs.Bool("quick", false, "small GPU / short kernels (seconds instead of minutes)")
	scale := fs.Float64("scale", 0, "kernel duration scale override (0 = preset default)")
	presets := fs.String("presets", "0.10,0.20", "comma-separated performance-loss presets")
	workers := fs.Int("j", runtime.NumCPU(), "parallel workers for sharded experiment stages")
	verbose := fs.Bool("v", true, "log progress")
	telemOut := fs.String("telemetry", "", "write the telemetry snapshot (JSON) here at exit")
	spansOut := fs.String("spans", "", "write pipeline phase spans (JSONL) here")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile here")
	memProf := fs.String("memprofile", "", "write a heap profile at exit here")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	obs, err := newObservability(*telemOut, *spansOut, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssmdvfs:", err)
		os.Exit(1)
	}
	stopCPU, err := telemetry.StartCPUProfile(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssmdvfs:", err)
		os.Exit(1)
	}

	runErr := run(cmd, *cache, *quick, *scale, *presets, *workers, obs)
	stopCPU()
	if err := obs.close(); err != nil && runErr == nil {
		runErr = err
	}
	if err := telemetry.WriteHeapProfile(*memProf); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "ssmdvfs:", runErr)
		os.Exit(1)
	}
}

// observability bundles the CLI's optional telemetry sinks: a registry
// dumped to JSON at exit, a span file, and the progress logger.
type observability struct {
	reg       *telemetry.Registry
	tracer    *telemetry.Tracer
	logger    *telemetry.Logger
	telemPath string
	spansFile *os.File
}

func newObservability(telemPath, spansPath string, verbose bool) (*observability, error) {
	obs := &observability{telemPath: telemPath}
	if telemPath != "" {
		obs.reg = telemetry.NewRegistry()
	}
	if spansPath != "" {
		f, err := os.Create(spansPath)
		if err != nil {
			return nil, err
		}
		obs.spansFile = f
		obs.tracer = telemetry.NewTracer(f)
	}
	var out io.Writer
	if verbose {
		out = os.Stderr
	}
	obs.logger = telemetry.NewLogger(out, obs.reg)
	return obs, nil
}

// close flushes the span file and writes the telemetry dump.
func (o *observability) close() error {
	if o.tracer != nil {
		if err := o.tracer.Flush(); err != nil {
			return err
		}
		if err := o.spansFile.Close(); err != nil {
			return err
		}
	}
	if o.reg != nil {
		return atomicfile.Write(o.telemPath, o.reg.WriteJSON)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ssmdvfs <pipeline|fig4|table1|table2|fig3|asic|sweep|headroom|quant|all|version> [flags]
run "ssmdvfs <cmd> -h" for flags`)
}

func run(cmd, cache string, quick bool, scale float64, presetsCSV string, workers int, obs *observability) error {
	opts := experiments.DefaultPipelineOptions()
	if quick {
		opts = experiments.QuickPipelineOptions()
	}
	if scale > 0 {
		opts.Scale = scale
	}
	opts.CacheDir = cache
	opts.Workers = workers
	opts.Logger = obs.logger
	opts.Telemetry = obs.reg
	opts.Tracer = obs.tracer

	presets, err := parsePresets(presetsCSV)
	if err != nil {
		return err
	}
	c := &cli{opts: opts, presets: presets, quick: quick}

	steps, ok := map[string][]func(*experiments.Pipeline) error{
		"pipeline": nil,
		"fig4":     {c.fig4},
		"table1":   {c.table1},
		"table2":   {c.table2},
		"fig3":     {c.fig3},
		"asic":     {c.asic},
		"sweep":    {c.sweep},
		"headroom": {c.headroom},
		"quant":    {c.quant},
		"all":      {c.table1, c.table2, c.fig3, c.fig4, c.asic},
	}[cmd]
	if !ok {
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
	p, err := experiments.RunPipeline(opts)
	if err != nil {
		return err
	}
	for _, step := range steps {
		if err := step(p); err != nil {
			return err
		}
	}
	return nil
}

// cli carries what the subcommands read besides the built pipeline.
type cli struct {
	opts    experiments.PipelineOptions
	presets []float64
	quick   bool
}

func parsePresets(csv string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad preset %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no presets given")
	}
	return out, nil
}

// grid runs the one closed-loop harness on the built models; fig4,
// sweep and headroom differ only in the three lists.
func (c *cli) grid(p *experiments.Pipeline, ks []kernels.Spec, presets []float64, mechs []experiments.Mechanism) (*experiments.Fig4Result, error) {
	res, err := experiments.RunFig4(experiments.Fig4Options{
		Sim:        c.opts.Sim,
		Kernels:    ks,
		Scale:      c.opts.Scale,
		Presets:    presets,
		Model:      p.Model,
		Compressed: p.Compressed,
		Mechanisms: mechs,
		Seed:       1,
		Logger:     c.opts.Logger,
		Workers:    c.opts.Workers,
		Telemetry:  c.opts.Telemetry,
		Tracer:     c.opts.Tracer,
	})
	if err != nil {
		return nil, err
	}
	return res, res.WriteSharing(os.Stdout)
}

func (c *cli) fig4(p *experiments.Pipeline) error {
	evalKernels := kernels.Evaluation()
	// Paper: the evaluation mix keeps >50% unseen; add a few training
	// kernels so seen programs are represented too.
	evalKernels = append(evalKernels, kernels.Training()[:4]...)
	res, err := c.grid(p, evalKernels, c.presets, nil)
	if err != nil {
		return err
	}
	fmt.Println("== Fig. 4: normalized EDP and latency ==")
	if err := res.WriteTable(os.Stdout); err != nil {
		return err
	}
	if c.opts.CacheDir != "" {
		if err := res.SaveFile(filepath.Join(c.opts.CacheDir, "fig4.json")); err != nil {
			return err
		}
	}
	for _, preset := range c.presets {
		var bars []viz.Bar
		for _, s := range res.Summaries {
			if s.Preset == preset {
				bars = append(bars, viz.Bar{Label: string(s.Mechanism), Value: s.GMeanEDP})
			}
		}
		fmt.Println()
		if err := viz.BarChart(os.Stdout,
			fmt.Sprintf("gmean normalized EDP at %.0f%% preset (lower is better):", preset*100),
			bars, 40, 1.0); err != nil {
			return err
		}
	}
	for _, variant := range []experiments.Mechanism{experiments.MechSSMDVFS, experiments.MechSSMDVFSComp} {
		h, err := res.ComputeHeadline(variant)
		if err != nil {
			return err
		}
		fmt.Printf("\nheadline (%s): EDP vs baseline %+.2f%%, vs PCSTALL %+.2f%%, vs F-LEMMA %+.2f%%\n",
			variant, h.VsBaselinePct, h.VsPCSTALLPct, h.VsFLEMMAPct)
	}
	return nil
}

func (c *cli) table1(p *experiments.Pipeline) error {
	res, err := experiments.RunTableI(p.Dataset, features.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Println("== Table I: metrics and performance counters (RFE) ==")
	return res.WriteTable(os.Stdout)
}

func (c *cli) table2(p *experiments.Pipeline) error {
	fmt.Println("== Table II: final model information ==")
	return experiments.RunTableII(p).WriteTable(os.Stdout)
}

func (c *cli) fig3(p *experiments.Pipeline) error {
	fig3 := experiments.DefaultFig3Options()
	fig3.TrainOpts = c.opts.TrainOpts
	fig3.PruneOpts = c.opts.PruneOpts
	fig3.Workers = c.opts.Workers
	fig3.Telemetry = c.opts.Telemetry
	fig3.Tracer = c.opts.Tracer
	if c.quick {
		fig3.Archs = fig3.Archs[:8]
		fig3.X1s = []float64{0.4, 0.6, 0.8}
		fig3.X2s = []float64{0.7, 0.9}
	}
	res, err := experiments.RunFig3(p.Dataset, p.Model, fig3)
	if err != nil {
		return err
	}
	fmt.Println("== Fig. 3: FLOPs vs accuracy and MAPE ==")
	return res.WriteTable(os.Stdout)
}

func (c *cli) sweep(p *experiments.Pipeline) error {
	res, err := c.grid(p, kernels.Evaluation(),
		[]float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50},
		[]experiments.Mechanism{experiments.MechSSMDVFSComp})
	if err != nil {
		return err
	}
	fmt.Println("== Extension: EDP/latency vs performance-loss preset ==")
	return res.WriteSummaries(os.Stdout)
}

func (c *cli) headroom(p *experiments.Pipeline) error {
	res, err := c.grid(p, kernels.Evaluation()[:6], []float64{0.10},
		[]experiments.Mechanism{experiments.MechSSMDVFS, experiments.MechStaticBest, experiments.MechOracleGreedy})
	if err != nil {
		return err
	}
	fmt.Println("== Extension: clairvoyant-oracle headroom at the 10% preset ==")
	return res.WriteTable(os.Stdout)
}

func (c *cli) asic(p *experiments.Pipeline) error {
	rep, err := experiments.RunASIC(p.Compressed)
	if err != nil {
		return err
	}
	fmt.Println("== Section V-D: ASIC implementation of the SSMDVFS module ==")
	return experiments.WriteASIC(os.Stdout, rep)
}

func (c *cli) quant(p *experiments.Pipeline) error {
	points, err := experiments.QuantSweep(p.Compressed, p.Dataset, []int{16, 12, 10, 8, 6, 4})
	if err != nil {
		return err
	}
	fmt.Println("== Extension: post-training quantization of the compressed module ==")
	fmt.Printf("%-6s %10s %8s\n", "bits", "accuracy", "mape")
	fmt.Printf("%-6s %9.2f%% %7.2f%%\n", "fp64", p.CompressedReport.Accuracy*100, p.CompressedReport.MAPE)
	for _, pt := range points {
		fmt.Printf("%-6d %9.2f%% %7.2f%%\n", pt.Bits, pt.Accuracy*100, pt.MAPE)
	}

	// Hardware cost with an INT16 MAC array.
	rep, err := experiments.RunASICInt(p.Compressed, 16)
	if err != nil {
		return err
	}
	fmt.Println("\nINT16 inference engine (same pipeline, integer MAC):")
	return experiments.WriteASIC(os.Stdout, rep)
}
