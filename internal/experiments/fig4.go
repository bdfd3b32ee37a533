package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"ssmdvfs/internal/atomicfile"
	"ssmdvfs/internal/baselines"
	"ssmdvfs/internal/core"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/kernels"
	"ssmdvfs/internal/oracle"
	"ssmdvfs/internal/runner"
	"ssmdvfs/internal/telemetry"
)

// Mechanism names a DVFS policy the closed-loop grid can run: the six
// compared in Fig. 4, "static-N" (every cluster pinned at level N), and
// the two clairvoyant searches of internal/oracle.
type Mechanism string

const (
	MechBaseline     Mechanism = "baseline"
	MechPCSTALL      Mechanism = "pcstall"
	MechFLEMMA       Mechanism = "flemma"
	MechSSMDVFS      Mechanism = "ssmdvfs"
	MechSSMDVFSNoCal Mechanism = "ssmdvfs-nocal"
	MechSSMDVFSComp  Mechanism = "ssmdvfs-compressed"
	// MechStaticBest is the best fixed level for the whole program, and
	// MechOracleGreedy the per-epoch clone-probing policy, each chosen
	// with perfect knowledge under the cell's preset. They bound what an
	// online mechanism could reach; neither is a controller.
	MechStaticBest   Mechanism = "static-best"
	MechOracleGreedy Mechanism = "oracle-greedy"
)

// AllMechanisms lists the Fig. 4 comparison set in display order.
func AllMechanisms() []Mechanism {
	return []Mechanism{MechBaseline, MechPCSTALL, MechFLEMMA,
		MechSSMDVFSNoCal, MechSSMDVFS, MechSSMDVFSComp}
}

// Fig4Options configures the full-system comparison.
type Fig4Options struct {
	Sim gpusim.Config
	// Kernels are the evaluation programs (the paper randomly selects a
	// mix with >50% unseen in training).
	Kernels []kernels.Spec
	// Scale shortens kernels for quick runs.
	Scale float64
	// Presets are the performance-loss budgets (paper: 0.10 and 0.20).
	Presets []float64
	// Model / Compressed are the trained SSMDVFS models; only the
	// SSMDVFS mechanisms need them.
	Model      *core.Model
	Compressed *core.Model
	// Mechanisms restricts or extends the comparison (nil =
	// AllMechanisms); any name NewController accepts may appear.
	Mechanisms []Mechanism
	// MaxRunPs bounds each simulation.
	MaxRunPs int64
	Seed     int64
	// Logger is the nil-safe progress logger (nil = quiet). Adapt
	// printf-style callbacks with telemetry.NewLoggerFunc.
	Logger *telemetry.Logger
	// Workers bounds the parallel runner sharding the independent
	// (kernel, preset, mechanism) simulations (<= 0 = GOMAXPROCS);
	// results are byte-identical at any worker count.
	Workers int
	// Telemetry / Tracer, when non-nil, receive the runner's shard
	// metrics and per-worker spans.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
}

// runnerOptions builds the runner config for one fig4 stage.
func (opts *Fig4Options) runnerOptions(name string) runner.Options {
	return runner.Options{
		Name:      name,
		Workers:   opts.Workers,
		Telemetry: opts.Telemetry,
		Tracer:    opts.Tracer,
	}
}

// Fig4Row is one (kernel, mechanism, preset) measurement.
type Fig4Row struct {
	Kernel    string
	Mechanism Mechanism
	Preset    float64

	ExecPs   int64
	EnergyPJ float64
	EDP      float64

	// NormEDP and NormLatency are relative to the default-OP baseline run
	// of the same kernel (baseline = 1.0).
	NormEDP     float64
	NormLatency float64
	// PerfLoss is NormLatency − 1.
	PerfLoss float64
	// WithinPreset reports whether the loss stayed under the preset.
	WithinPreset bool
	Transitions  int
}

// Fig4Summary aggregates one mechanism at one preset across kernels.
type Fig4Summary struct {
	Mechanism   Mechanism
	Preset      float64
	GMeanEDP    float64
	MeanLatency float64
	MaxLoss     float64
	ViolationN  int
	Kernels     int
}

// Fig4Result is the full comparison.
type Fig4Result struct {
	Rows      []Fig4Row
	Summaries []Fig4Summary
}

// RunFig4 is the closed-loop harness: for each kernel a default-OP
// baseline run, then each mechanism at each preset, normalized to that
// baseline. The baselines and the (kernel, preset, mechanism) grid are
// each sharded across the worker pool; rows are merged in the serial
// nesting order so the result is identical at any worker count.
func RunFig4(opts Fig4Options) (*Fig4Result, error) {
	if len(opts.Kernels) == 0 {
		return nil, fmt.Errorf("experiments: Fig4 requires evaluation kernels")
	}
	if len(opts.Presets) == 0 {
		opts.Presets = []float64{0.10, 0.20}
	}
	if opts.Scale <= 0 {
		opts.Scale = 1.0
	}
	if opts.MaxRunPs <= 0 {
		opts.MaxRunPs = gpusim.DefaultMaxRunPs
	}
	mechs := opts.Mechanisms
	if mechs == nil {
		mechs = AllMechanisms()
	}
	// A misspelt mechanism or a missing model fails here, not after the
	// baselines have been simulated.
	for _, mech := range mechs {
		if _, err := NewController(mech, opts.Presets[0], opts); err != nil {
			return nil, err
		}
	}
	log := opts.Logger

	built := make([]gpusim.Kernel, len(opts.Kernels))
	for i, spec := range opts.Kernels {
		built[i] = spec.Build(opts.Scale)
	}
	ctx := context.Background()
	bases, err := runner.Map(ctx, len(built), opts.runnerOptions("fig4:baseline"),
		func(_ context.Context, s runner.Shard) (gpusim.Result, error) {
			spec := opts.Kernels[s.Index]
			base, err := runOnce(opts.Sim, built[s.Index], nil, opts.MaxRunPs)
			if err != nil {
				return gpusim.Result{}, fmt.Errorf("experiments: baseline run of %s: %w", spec.Name, err)
			}
			log.Logf("fig4: %-24s baseline T=%.1fus E=%.2fmJ", spec.Name,
				float64(base.ExecTimePs)/1e6, base.EnergyPJ/1e9)
			return base, nil
		})
	if err != nil {
		return nil, err
	}

	// One shard per (kernel, preset, mechanism) cell, flattened
	// kernel-major so the merged rows reproduce the serial append order.
	np, nm := len(opts.Presets), len(mechs)
	rows, err := runner.Map(ctx, len(built)*np*nm, opts.runnerOptions("fig4"),
		func(_ context.Context, s runner.Shard) (Fig4Row, error) {
			k := s.Index / (np * nm)
			preset := opts.Presets[(s.Index%(np*nm))/nm]
			mech := mechs[s.Index%nm]
			spec := opts.Kernels[k]
			base := bases[k]

			r, note, err := runCell(opts, mech, preset, built[k], base)
			if err != nil {
				return Fig4Row{}, fmt.Errorf("experiments: %s on %s: %w", mech, spec.Name, err)
			}
			row := makeRow(spec.Name, mech, preset, r, base.ExecTimePs, base.EDP())
			log.Logf("fig4: %-24s %-18s preset=%.0f%% edp=%.3f lat=%.3f%s",
				spec.Name, mech, preset*100, row.NormEDP, row.NormLatency, note)
			return row, nil
		})
	if err != nil {
		return nil, err
	}

	res := &Fig4Result{Rows: rows}
	res.Summaries, err = summarize(res.Rows, mechs, opts.Presets)
	return res, err
}

// runCell is the only place a mechanism name becomes a simulation: the
// baseline's run is reused, the two oracles search with internal/oracle,
// and every other name is a NewController controller driving one run.
// note, when non-empty, is appended to the cell's progress line.
func runCell(opts Fig4Options, mech Mechanism, preset float64, kernel gpusim.Kernel, base gpusim.Result) (r gpusim.Result, note string, err error) {
	switch mech {
	case MechBaseline:
		return base, "", nil
	case MechStaticBest:
		perLevel, best, err := oracle.StaticBest(opts.Sim, kernel, preset, oracle.EDPObjective, opts.MaxRunPs)
		if err != nil {
			return gpusim.Result{}, "", err
		}
		return perLevel[best], fmt.Sprintf(" level=%d", best), nil
	case MechOracleGreedy:
		g, err := oracle.Greedy(opts.Sim, kernel, oracle.GreedyOptions{Preset: preset, MaxRunPs: opts.MaxRunPs})
		if err != nil {
			return gpusim.Result{}, "", err
		}
		return g.Result, "", nil
	}
	ctrl, err := NewController(mech, preset, opts)
	if err != nil {
		return gpusim.Result{}, "", err
	}
	r, err = runOnce(opts.Sim, kernel, ctrl, opts.MaxRunPs)
	return r, "", err
}

func runOnce(cfg gpusim.Config, kernel gpusim.Kernel, ctrl gpusim.Controller, maxPs int64) (gpusim.Result, error) {
	sim, err := gpusim.New(cfg, kernel)
	if err != nil {
		return gpusim.Result{}, err
	}
	if ctrl != nil {
		sim.SetController(ctrl)
	}
	r := sim.Run(maxPs)
	if !r.Completed {
		return r, fmt.Errorf("run did not complete within %d ps", maxPs)
	}
	return r, nil
}

// NewController is the one place a mechanism name becomes a controller;
// of opts it reads Sim, Model, Compressed and Seed. Three names need no
// controller and yield nil: the baseline runs at the default operating
// point, and the two oracles are searches over whole runs that RunFig4's
// cell hands to internal/oracle (a caller that can only drive a
// controller must refuse those two itself). Anything else — a misspelt
// name, a static level outside opts.Sim.OPs, an SSMDVFS variant whose
// model is missing — is an error.
func NewController(mech Mechanism, preset float64, opts Fig4Options) (gpusim.Controller, error) {
	clusters := opts.Sim.Clusters
	switch mech {
	case MechBaseline, MechStaticBest, MechOracleGreedy:
		return nil, nil
	case MechPCSTALL:
		return baselines.NewPCSTALL(opts.Sim.OPs, preset, clusters)
	case MechFLEMMA:
		return baselines.NewFLEMMA(opts.Sim.OPs, preset, clusters, opts.Seed)
	case MechSSMDVFS, MechSSMDVFSNoCal:
		if opts.Model == nil {
			return nil, fmt.Errorf("experiments: %s requires a trained model", mech)
		}
		return NewSSMDVFS(opts.Model, preset, opts.Sim, mech == MechSSMDVFS)
	case MechSSMDVFSComp:
		if opts.Compressed == nil {
			return nil, fmt.Errorf("experiments: %s requires a compressed model", mech)
		}
		return NewSSMDVFS(opts.Compressed, preset, opts.Sim, true)
	}
	if n, ok := strings.CutPrefix(string(mech), "static-"); ok {
		lvl, err := strconv.Atoi(n)
		if err != nil || lvl < 0 || lvl >= opts.Sim.OPs.Len() {
			return nil, fmt.Errorf("experiments: mechanism %q: static level must be 0..%d", mech, opts.Sim.OPs.Len()-1)
		}
		return &baselines.Static{Level: lvl}, nil
	}
	return nil, fmt.Errorf("experiments: unknown mechanism %q", mech)
}

// NewSSMDVFS builds the SSMDVFS controller with the analytical PCSTALL
// baseline installed as its degradation fallback, so a model failure
// mid-run degrades that epoch to a safe analytical decision instead of
// crashing the simulation.
func NewSSMDVFS(model *core.Model, preset float64, cfg gpusim.Config, calibrate bool) (gpusim.Controller, error) {
	ctrl, err := core.NewController(model, preset, cfg.Clusters, calibrate)
	if err != nil {
		return nil, err
	}
	fb, err := baselines.NewPCSTALL(cfg.OPs, preset, cfg.Clusters)
	if err != nil {
		return nil, err
	}
	ctrl.SetFallback(fb)
	return ctrl, nil
}

func makeRow(kernel string, mech Mechanism, preset float64, r gpusim.Result, baseT int64, baseEDP float64) Fig4Row {
	row := Fig4Row{
		Kernel:      kernel,
		Mechanism:   mech,
		Preset:      preset,
		ExecPs:      r.ExecTimePs,
		EnergyPJ:    r.EnergyPJ,
		EDP:         r.EDP(),
		Transitions: r.Transitions,
	}
	row.NormEDP = row.EDP / baseEDP
	row.NormLatency = float64(r.ExecTimePs) / float64(baseT)
	row.PerfLoss = row.NormLatency - 1
	row.WithinPreset = row.PerfLoss <= preset+1e-9
	return row
}

func summarize(rows []Fig4Row, mechs []Mechanism, presets []float64) ([]Fig4Summary, error) {
	var out []Fig4Summary
	for _, preset := range presets {
		for _, mech := range mechs {
			var edps, lats []float64
			violations := 0
			maxLoss := 0.0
			for _, r := range rows {
				if r.Mechanism != mech || r.Preset != preset {
					continue
				}
				edps = append(edps, r.NormEDP)
				lats = append(lats, r.NormLatency)
				if !r.WithinPreset {
					violations++
				}
				if r.PerfLoss > maxLoss {
					maxLoss = r.PerfLoss
				}
			}
			if len(edps) == 0 {
				continue
			}
			g, err := geoMean(edps)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig4Summary{
				Mechanism:   mech,
				Preset:      preset,
				GMeanEDP:    g,
				MeanLatency: mean(lats),
				MaxLoss:     maxLoss,
				ViolationN:  violations,
				Kernels:     len(edps),
			})
		}
	}
	return out, nil
}

// Headline computes the paper's headline comparisons from a Fig. 4 run:
// the EDP improvement of the given SSMDVFS variant over the baseline,
// PCSTALL, and F-LEMMA, averaged across presets. Positive percentages
// mean the variant is better (lower EDP).
type Headline struct {
	Variant       Mechanism
	VsBaselinePct float64
	VsPCSTALLPct  float64
	VsFLEMMAPct   float64
}

// ComputeHeadline derives headline EDP improvements for variant from the
// result's summaries.
func (r *Fig4Result) ComputeHeadline(variant Mechanism) (Headline, error) {
	h := Headline{Variant: variant}
	meanEDP := func(m Mechanism) (float64, error) {
		var vals []float64
		for _, s := range r.Summaries {
			if s.Mechanism == m {
				vals = append(vals, s.GMeanEDP)
			}
		}
		if len(vals) == 0 {
			return 0, fmt.Errorf("experiments: no summaries for mechanism %q", m)
		}
		return mean(vals), nil
	}
	v, err := meanEDP(variant)
	if err != nil {
		return h, err
	}
	base, err := meanEDP(MechBaseline)
	if err != nil {
		return h, err
	}
	h.VsBaselinePct = (1 - v/base) * 100
	if pc, err := meanEDP(MechPCSTALL); err == nil {
		h.VsPCSTALLPct = (1 - v/pc) * 100
	}
	if fl, err := meanEDP(MechFLEMMA); err == nil {
		h.VsFLEMMAPct = (1 - v/fl) * 100
	}
	return h, nil
}

// WriteTable renders rows and summaries as text tables.
func (r *Fig4Result) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "kernel\tmechanism\tpreset\tnorm_edp\tnorm_latency\tperf_loss\twithin")
	rows := append([]Fig4Row(nil), r.Rows...)
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Preset != rows[j].Preset {
			return rows[i].Preset < rows[j].Preset
		}
		if rows[i].Kernel != rows[j].Kernel {
			return rows[i].Kernel < rows[j].Kernel
		}
		return rows[i].Mechanism < rows[j].Mechanism
	})
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.0f%%\t%.3f\t%.3f\t%+.2f%%\t%v\n",
			row.Kernel, row.Mechanism, row.Preset*100,
			row.NormEDP, row.NormLatency, row.PerfLoss*100, row.WithinPreset)
	}
	fmt.Fprintln(tw)
	if err := tw.Flush(); err != nil {
		return err
	}
	return r.WriteSummaries(w)
}

// WriteSummaries renders the per-(mechanism, preset) aggregate table
// alone — all a one-mechanism sweep over many presets needs.
func (r *Fig4Result) WriteSummaries(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mechanism\tpreset\tgmean_edp\tmean_latency\tmax_loss\tviolations")
	for _, s := range r.Summaries {
		fmt.Fprintf(tw, "%s\t%.0f%%\t%.3f\t%.3f\t%.2f%%\t%d/%d\n",
			s.Mechanism, s.Preset*100, s.GMeanEDP, s.MeanLatency,
			s.MaxLoss*100, s.ViolationN, s.Kernels)
	}
	return tw.Flush()
}

// SaveFile writes the full result (rows + summaries) as JSON atomically,
// so plots and later analysis do not need to re-run the simulations.
func (r *Fig4Result) SaveFile(path string) error {
	return atomicfile.WriteJSON(path, r)
}

// LoadFig4File reads a result saved with SaveFile.
func LoadFig4File(path string) (*Fig4Result, error) {
	var r Fig4Result
	if err := atomicfile.ReadJSON(path, &r); err != nil {
		return nil, fmt.Errorf("experiments: fig4 result: %w", err)
	}
	return &r, nil
}
