package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	// Workers bounds the worker pool (<= 0 = GOMAXPROCS). What it bounds is
	// simulators running at once — groups of cells still sharing one, and
	// oracle searches — not cells; results are byte-identical at any
	// worker count.
	Workers int
	// Telemetry / Tracer, when non-nil, receive the pool's shard metrics
	// beside the grid's fig4_epochs_simulated_total,
	// fig4_epochs_served_total and fig4_clones_total, and one span per
	// group of cells (kernel, cells, first_epoch, worker) on its worker's
	// track.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
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

	// What sharing simulators saved, as counts that depend on the grid
	// alone, not on workers or scheduling. EpochsServed is the finalised
	// epochs of every controller-driven cell and each kernel's baseline,
	// what one simulator per cell would simulate; EpochsSimulated how many
	// were, each distinct one once; Clones how many simulators were forked
	// where cells' decisions parted. The oracle mechanisms' own searches
	// are in none of them.
	EpochsSimulated int64
	EpochsServed    int64
	Clones          int64
}

// RunFig4 is the closed-loop harness: for each kernel a default-OP
// baseline run and each mechanism at each preset, normalized to that
// baseline. A kernel's baseline and controller-driven cells start as one
// group on one simulator and fork only where their decisions part
// (runGroup); rows are merged in the serial nesting order, so the result
// is identical at any worker count.
func RunFig4(opts Fig4Options) (*Fig4Result, error) {
	g, err := newGrid(opts)
	if err != nil {
		return nil, err
	}
	if err := g.run(); err != nil {
		return nil, err
	}
	res := &Fig4Result{
		EpochsSimulated: g.simulated.Load(),
		EpochsServed:    g.served.Load(),
		Clones:          g.clones.Load(),
	}
	if reg := opts.Telemetry; reg != nil {
		reg.Counter("fig4_epochs_simulated_total").Add(res.EpochsSimulated)
		reg.Counter("fig4_epochs_served_total").Add(res.EpochsServed)
		reg.Counter("fig4_clones_total").Add(res.Clones)
	}
	for _, k := range g.runs {
		for _, r := range g.rows {
			res.Rows = append(res.Rows, g.row(k, r))
		}
	}
	res.Summaries, err = summarize(res.Rows, g.opts.Mechanisms, g.opts.Presets)
	return res, err
}

// newGrid applies the defaults, refuses what cannot run — a misspelt
// mechanism or a missing model fails here, before anything is simulated —
// and lays out the cells.
func newGrid(opts Fig4Options) (*grid, error) {
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
	if opts.Mechanisms == nil {
		opts.Mechanisms = AllMechanisms()
	}
	for _, mech := range opts.Mechanisms {
		if _, err := NewController(mech, opts.Presets[0], opts); err != nil {
			return nil, err
		}
	}

	// Cell 0 is the baseline, whatever the mechanism list; every other
	// (preset, mechanism) pair is a cell of its own, and a listed baseline's
	// rows read cell 0.
	g := &grid{opts: opts, cells: []cell{{mech: MechBaseline}}}
	for _, preset := range opts.Presets {
		for _, mech := range opts.Mechanisms {
			if mech == MechBaseline {
				g.rows = append(g.rows, rowRef{cell: 0, preset: preset})
				continue
			}
			g.rows = append(g.rows, rowRef{cell: len(g.cells), preset: preset})
			g.cells = append(g.cells, cell{mech: mech, preset: preset})
		}
	}
	g.runs = make([]*kernelRun, len(opts.Kernels))
	for i, spec := range opts.Kernels {
		g.runs[i] = &kernelRun{spec: spec, kernel: spec.Build(opts.Scale), results: make([]gpusim.Result, len(g.cells))}
	}
	return g, nil
}

// run simulates every cell of every kernel. Roots are taken longest kernel
// first, by dynamic instruction count, so the pool does not end on one
// long kernel running alone.
func (g *grid) run() error {
	order := slices.Clone(g.runs)
	sort.SliceStable(order, func(i, j int) bool {
		return order[i].kernel.TotalInstructions() > order[j].kernel.TotalInstructions()
	})
	return runner.Tasks(context.Background(), len(order), runner.Options{
		Name:      "fig4",
		Workers:   g.opts.Workers,
		Telemetry: g.opts.Telemetry,
		Tracer:    g.opts.Tracer,
	}, func(_ context.Context, t *runner.Task) error {
		return g.runKernel(t, order[t.Index])
	})
}

// cell is one simulation of every kernel's grid: the baseline, or one
// mechanism at one preset.
type cell struct {
	mech   Mechanism
	preset float64
}

// rowRef is the cell a row reports and the preset it is held against: the
// cell's own, or for a baseline row, which has none, the row's.
type rowRef struct {
	cell   int
	preset float64
}

// grid is what one RunFig4 call shares between its tasks.
type grid struct {
	opts  Fig4Options // defaults applied
	cells []cell
	// rows are a kernel's rows, preset-major in mechanism order.
	rows []rowRef
	runs []*kernelRun // in opts.Kernels order
	// wrap, when a test sets it, stands between a cell and its controller.
	wrap func(k *kernelRun, cell int, ctrl gpusim.Controller) gpusim.Controller

	simulated, served, clones atomic.Int64
}

// kernelRun is one kernel's cells as their results come in.
type kernelRun struct {
	spec   kernels.Spec
	kernel gpusim.Kernel

	mu sync.Mutex
	// results is indexed by cell; an entry is written once, under mu.
	results []gpusim.Result
	// unlogged are the cells whose result is in and whose progress line is
	// not out: a line is normalized to the baseline, so it waits for cell 0.
	unlogged []loggedCell
}

type loggedCell struct {
	cell int
	note string
}

// member is a cell in a group with the controller deciding for it — none
// for the baseline, which holds every cluster at its level.
type member struct {
	cell int
	ctrl gpusim.Controller
}

// runKernel is a kernel's root task: one fresh simulator under the
// baseline and a newly built controller per controller-driven cell. The
// oracle cells are searches over whole runs and start when the baseline
// is in (runOracles).
func (g *grid) runKernel(t *runner.Task, k *kernelRun) error {
	sim, err := gpusim.New(g.opts.Sim, k.kernel)
	if err != nil {
		return fmt.Errorf("experiments: baseline run of %s: %w", k.spec.Name, err)
	}
	members := []member{{cell: 0}}
	for i, c := range g.cells[1:] {
		ctrl, err := NewController(c.mech, c.preset, g.opts)
		if err != nil {
			return fmt.Errorf("experiments: %s on %s: %w", c.mech, k.spec.Name, err)
		}
		if ctrl == nil {
			continue
		}
		if g.wrap != nil {
			ctrl = g.wrap(k, i+1, ctrl)
		}
		members = append(members, member{cell: i + 1, ctrl: ctrl})
	}
	return g.runGroup(t, k, sim, members, 0)
}

// runGroup runs the cells that have decided alike so far on the one
// simulator they share. At every epoch boundary each cell's controller is
// shown the closed epoch — the same statistics, in ascending cluster
// order, finished clusters skipped: the Decide sequence of a run of its
// own — and the group is split by the clamped level vectors that come
// back. The first part keeps the simulator; every other continues, as a
// task any idle worker may take, on a Clone made before the levels are
// applied. What is left of the group when the kernel completes shares its
// Result. Nothing is stored but the live simulators, and which cell
// forks where depends on the decisions alone, never on scheduling.
func (g *grid) runGroup(t *runner.Task, k *kernelRun, sim *gpusim.Simulator, members []member, firstEpoch int) error {
	t.SetAttr("kernel", k.spec.Name)
	t.SetAttr("cells", strconv.Itoa(len(members)))
	t.SetAttr("first_epoch", strconv.Itoa(firstEpoch))
	t.SetAttr("worker", strconv.Itoa(t.Worker))
	type part struct {
		levels  []int
		members []member
	}
	for {
		stats, ok := sim.CloseEpoch(g.opts.MaxRunPs)
		if !ok {
			break
		}
		g.simulated.Add(1)
		g.served.Add(int64(len(members)))

		var parts []part
		for _, m := range members {
			levels := make([]int, len(stats))
			for i, st := range stats {
				if m.ctrl == nil || st.WarpsActive == 0 {
					// The level in force: no change, for the baseline's
					// clusters and for a finished one, which is not asked.
					levels[i] = st.Level
					continue
				}
				levels[i] = g.opts.Sim.OPs.Clamp(m.ctrl.Decide(st))
			}
			i := slices.IndexFunc(parts, func(p part) bool { return slices.Equal(p.levels, levels) })
			if i < 0 {
				i = len(parts)
				parts = append(parts, part{levels: levels})
			}
			parts[i].members = append(parts[i].members, m)
		}
		next := stats[0].Epoch + 1 // read now: stats is the simulator's scratch
		for _, p := range parts[1:] {
			fork := sim.Clone()
			fork.OpenEpoch(p.levels)
			g.clones.Add(1)
			t.Go(func(_ context.Context, t *runner.Task) error {
				return g.runGroup(t, k, fork, p.members, next)
			})
		}
		sim.OpenEpoch(parts[0].levels)
		members = parts[0].members
	}

	res := sim.Run(g.opts.MaxRunPs)
	if !res.Completed {
		err := fmt.Errorf("run did not complete within %d ps", g.opts.MaxRunPs)
		if first := members[0].cell; first != 0 {
			return fmt.Errorf("experiments: %s on %s: %w", g.cells[first].mech, k.spec.Name, err)
		}
		return fmt.Errorf("experiments: baseline run of %s: %w", k.spec.Name, err)
	}
	for _, m := range members {
		g.finish(k, m.cell, res, "")
	}
	if members[0].cell == 0 {
		g.runOracles(t, k, res)
	}
	return nil
}

// runOracles submits the kernel's clairvoyant cells, which read the
// baseline: static-best simulates each level but the default once per
// kernel — the default level's run is the baseline's — and picks per
// preset; every oracle-greedy cell is a search of its own.
func (g *grid) runOracles(t *runner.Task, k *kernelRun, base gpusim.Result) {
	oracleErr := func(mech Mechanism, err error) error {
		return fmt.Errorf("experiments: %s on %s: %w", mech, k.spec.Name, err)
	}
	cfg := g.opts.Sim
	var static []int // the static-best cells, one per preset
	for i, c := range g.cells {
		switch c.mech {
		case MechStaticBest:
			static = append(static, i)
		case MechOracleGreedy:
			t.Go(func(context.Context, *runner.Task) error {
				res, err := oracle.Greedy(cfg, k.kernel, oracle.GreedyOptions{Preset: c.preset, MaxRunPs: g.opts.MaxRunPs})
				if err != nil {
					return oracleErr(MechOracleGreedy, err)
				}
				g.finish(k, i, res.Result, "")
				return nil
			})
		}
	}
	if len(static) == 0 {
		return
	}
	t.Go(func(context.Context, *runner.Task) error {
		perLevel, err := oracle.StaticRuns(cfg, k.kernel, base, g.opts.MaxRunPs)
		if err != nil {
			return oracleErr(MechStaticBest, err)
		}
		for _, i := range static {
			best := oracle.StaticPick(perLevel, cfg.OPs.Default(), g.cells[i].preset, oracle.EDPObjective)
			g.finish(k, i, perLevel[best], fmt.Sprintf(" level=%d", best))
		}
		return nil
	})
}

// finish records a cell's result and emits the progress lines that can now
// be written; note is appended to the cell's.
func (g *grid) finish(k *kernelRun, c int, res gpusim.Result, note string) {
	k.mu.Lock()
	k.results[c] = res
	k.unlogged = append(k.unlogged, loggedCell{c, note})
	var ready []loggedCell
	if k.results[0].Completed {
		ready, k.unlogged = k.unlogged, nil
	}
	k.mu.Unlock()

	// The entries read below were written before the unlock and are not
	// written again.
	log := g.opts.Logger
	for _, l := range ready {
		if l.cell == 0 {
			base := k.results[0]
			log.Logf("fig4: %-24s baseline T=%.1fus E=%.2fmJ", k.spec.Name,
				float64(base.ExecTimePs)/1e6, base.EnergyPJ/1e9)
			continue
		}
		row := g.row(k, rowRef{l.cell, g.cells[l.cell].preset})
		log.Logf("fig4: %-24s %-18s preset=%.0f%% edp=%.3f lat=%.3f%s",
			k.spec.Name, row.Mechanism, row.Preset*100, row.NormEDP, row.NormLatency, l.note)
	}
}

// row normalizes a finished cell to its kernel's finished baseline.
func (g *grid) row(k *kernelRun, r rowRef) Fig4Row {
	base := k.results[0]
	return makeRow(k.spec.Name, g.cells[r.cell].mech, r.preset, k.results[r.cell], base.ExecTimePs, base.EDP())
}

// NewController is the one place a mechanism name becomes a controller;
// of opts it reads Sim, Model, Compressed and Seed. Three names need no
// controller and yield nil: the baseline runs at the default operating
// point, and the two oracles are searches over whole runs that RunFig4
// hands to internal/oracle (a caller that can only drive a controller
// must refuse those two itself). Anything else — a misspelt
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

// WriteSharing prints, on one line, how much of the grid's simulation its
// cells shared.
func (r *Fig4Result) WriteSharing(w io.Writer) error {
	_, err := fmt.Fprintf(w, "simulated %d of %d epochs, %d clones\n", r.EpochsSimulated, r.EpochsServed, r.Clones)
	return err
}

// SaveFile writes the full result (rows, summaries and counts) as JSON atomically,
// so plots and later analysis do not need to re-run the simulations.
func (r *Fig4Result) SaveFile(path string) error {
	return atomicfile.WriteJSON(path, r)
}
