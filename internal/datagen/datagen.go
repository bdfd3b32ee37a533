// Package datagen implements the paper's data-generation methodology
// (Section III-A): run each benchmark at the default V/f point; every
// ~100 µs establish a breakpoint; use the next 10 µs epoch as the feature
// collection window; then replay the following 10 µs once per operating
// point (the frequency-scaling window), reverting to the default
// afterwards so total workload stays constant; and label each replay with
// the window-normalized performance loss (T_f − T_ref)/T_window, with the
// numerator measured over the *whole remaining execution*, not just the
// 20 µs — capturing the delayed effects of a frequency change. Beyond the
// paper, feature windows are additionally collected at every operating
// point so the corpus covers the closed-loop feature distribution the
// runtime controller actually observes.
//
// The simulator's Clone support makes the replay exact: every operating
// point continues from the identical architectural state.
package datagen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"ssmdvfs/internal/atomicfile"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/isa"
	"ssmdvfs/internal/runner"
	"ssmdvfs/internal/telemetry"
)

// Sample is one training example: the feature window's counters for one
// cluster, the operating point applied in the scaling window, the
// resulting program-level performance loss, and the instructions that
// cluster executed during the scaling window (the Calibrator target).
type Sample struct {
	Kernel     string    `json:"kernel"`
	Breakpoint int       `json:"breakpoint"`
	Cluster    int       `json:"cluster"`
	Level      int       `json:"level"`
	Features   []float64 `json:"features"`
	PerfLoss   float64   `json:"perf_loss"`
	// ScalingInstr is the instruction count this cluster completed during
	// the 10 µs frequency-scaling window.
	ScalingInstr float64 `json:"scaling_instr"`
}

// Dataset is the full generated corpus.
type Dataset struct {
	CounterNames []string `json:"counter_names"`
	Levels       int      `json:"levels"`
	Samples      []Sample `json:"samples"`
}

// Config controls generation.
type Config struct {
	// Sim is the GPU configuration; Sim.EpochPs is both the feature window
	// and the scaling window length (the paper's 10 µs).
	Sim gpusim.Config
	// BreakpointPs is the interval between breakpoints (the paper's
	// ~100 µs).
	BreakpointPs int64
	// MaxBreakpoints bounds breakpoints per kernel (0 = unlimited).
	MaxBreakpoints int
	// MaxRunPs is a safety bound on any single simulation.
	MaxRunPs int64
	// ClusterStride records samples from every k-th cluster (1 = all);
	// clusters at the same breakpoint see near-identical dynamics, so
	// subsampling cuts dataset size without losing diversity.
	ClusterStride int
	// FeatureLevels are the operating points at which feature windows are
	// collected (nil = every level). The paper collects features only at
	// the default OP; the runtime controller, however, observes feature
	// windows executed at whatever level it previously chose, so covering
	// all levels closes the train/inference distribution gap.
	FeatureLevels []int
}

func allLevels(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// DefaultConfig returns the paper's setup on the given GPU configuration.
func DefaultConfig(sim gpusim.Config) Config {
	return Config{
		Sim:           sim,
		BreakpointPs:  100_000_000, // 100 µs
		MaxRunPs:      gpusim.DefaultMaxRunPs,
		ClusterStride: 1,
	}
}

func (c Config) validate() error {
	if c.BreakpointPs <= 0 {
		return fmt.Errorf("datagen: BreakpointPs must be positive")
	}
	if c.BreakpointPs%c.Sim.EpochPs != 0 {
		return fmt.Errorf("datagen: BreakpointPs (%d) must be a multiple of the epoch length (%d)",
			c.BreakpointPs, c.Sim.EpochPs)
	}
	if c.MaxRunPs <= 0 {
		return fmt.Errorf("datagen: MaxRunPs must be positive")
	}
	if c.ClusterStride <= 0 {
		return fmt.Errorf("datagen: ClusterStride must be positive")
	}
	return c.Sim.Validate()
}

// epochRecorder captures per-cluster stats for a single epoch index.
type epochRecorder struct {
	epoch int
	stats map[int]gpusim.EpochStats
}

func newEpochRecorder(epoch int) *epochRecorder {
	return &epochRecorder{epoch: epoch, stats: make(map[int]gpusim.EpochStats)}
}

func (r *epochRecorder) observe(s gpusim.EpochStats) {
	if s.Epoch == r.epoch {
		r.stats[s.Cluster] = s
	}
}

// featureLevels returns the levels feature windows are collected at.
func (c Config) featureLevels() []int {
	if len(c.FeatureLevels) == 0 {
		return allLevels(c.Sim.OPs.Len())
	}
	return c.FeatureLevels
}

// breakpoints returns the breakpoint times of a kernel whose reference run
// completes at t0. A breakpoint at time b uses epoch [b, b+10µs) as the
// feature window and epoch [b+10µs, b+20µs) as the scaling window, so the
// last usable breakpoint leaves at least two epochs before completion.
// Programs too short for the configured interval fall back to one
// breakpoint per epoch so short-duration tasks still contribute data.
func (c Config) breakpoints(t0 int64) []int64 {
	epochPs := c.Sim.EpochPs
	interval := c.BreakpointPs
	if interval+2*epochPs >= t0 {
		interval = epochPs
	}
	var bps []int64
	for b := interval; b+2*epochPs < t0; b += interval {
		if c.MaxBreakpoints > 0 && len(bps) >= c.MaxBreakpoints {
			break
		}
		bps = append(bps, b)
	}
	return bps
}

// scalingWindow replays the scaling window of the breakpoint at b on a
// clone of fsim, which stands at the end of the feature window: it forces
// level, runs just past the window's end and returns the replay there,
// with the window's per-cluster statistics.
func scalingWindow(fsim *gpusim.Simulator, b, epochPs int64, level int) (*gpusim.Simulator, *epochRecorder) {
	replay := fsim.Clone()
	rec := newEpochRecorder(int(b/epochPs) + 1)
	replay.SetObserver(rec.observe)
	replay.ForceLevel(level)
	replay.RunUntil(b + 2*epochPs + 1)
	replay.SetObserver(nil)
	return replay, rec
}

// generate runs the methodology over one kernel as the root task t of a
// suite. It runs the reference and the master, keeps one snapshot of the
// master per breakpoint, and submits one task per (breakpoint, feature
// level) that clones the snapshot and labels that feature window; the task
// writes its samples into the slot its identity names, slots[breakpoint ×
// feature levels + feature level], so what generate produces does not
// depend on which worker runs which task, or when. done is called once
// the root has returned and every task it submitted has finished.
func generate(t *runner.Task, cfg Config, kernel isa.Kernel, log *telemetry.Logger, done func()) ([][]Sample, error) {
	var pending atomic.Int64 // this root, and every task it has submitted
	pending.Store(1)
	finish := func() {
		if pending.Add(-1) == 0 {
			done()
		}
	}
	defer finish()
	logf := log.Logf
	featureLevels := cfg.featureLevels()

	// Reference run: the whole program at the default operating point.
	ref, err := gpusim.New(cfg.Sim, kernel)
	if err != nil {
		return nil, err
	}
	master := ref.Clone()
	refRes := ref.Run(cfg.MaxRunPs)
	if !refRes.Completed {
		return nil, fmt.Errorf("datagen: kernel %q did not complete within MaxRunPs at default OP", kernel.Name)
	}
	t0 := refRes.ExecTimePs
	logf("datagen: %s T0=%.1fus", kernel.Name, float64(t0)/1e6)

	bps := cfg.breakpoints(t0)
	if len(bps) == 0 {
		return nil, fmt.Errorf("datagen: kernel %q too short for any breakpoint (T0=%d ps, interval=%d ps)",
			kernel.Name, t0, cfg.BreakpointPs)
	}
	slots := make([][]Sample, len(bps)*len(featureLevels))
	pending.Add(int64(len(slots)))
	for bi, b := range bps {
		// Advance the master (always at the default OP) to the breakpoint.
		master.RunUntil(b)
		snap := master.Clone()
		for fi, featLevel := range featureLevels {
			slot := &slots[bi*len(featureLevels)+fi]
			t.Go(func(context.Context, *runner.Task) (err error) {
				defer finish()
				*slot, err = labelWindow(cfg, kernel, snap, bi+1, b, featLevel, t0, logf)
				return err
			})
		}
	}
	return slots, nil
}

// labelWindow collects the feature window of the breakpoint at b (the
// bp-th of its kernel) at featLevel on a clone of snap, the master at b,
// and labels it once per operating point: it replays the scaling window at
// each level on a clone of what follows the feature window and the rest
// of the program at the default, and returns one sample per recorded
// cluster and level.
func labelWindow(cfg Config, kernel isa.Kernel, snap *gpusim.Simulator, bp int, b int64, featLevel int, t0 int64, logf func(string, ...any)) ([]Sample, error) {
	epochPs := cfg.Sim.EpochPs
	levels := cfg.Sim.OPs.Len()
	defaultLevel := cfg.Sim.OPs.Default()
	featEpoch := int(b / epochPs)

	// Runtime feature windows execute at whatever OP the controller last
	// chose, not only the default, so the corpus covers feature windows at
	// every requested level (the paper collects only at the default; see
	// DESIGN.md for why the closed-loop distribution needs the extension).
	fsim := snap.Clone()
	fsim.ForceLevel(featLevel)
	rec := newEpochRecorder(featEpoch)
	fsim.SetObserver(rec.observe)
	fsim.RunUntil(b + epochPs + 1)
	fsim.SetObserver(nil)
	if len(rec.stats) == 0 {
		return nil, fmt.Errorf("datagen: %s breakpoint %d: feature window epoch %d not observed",
			kernel.Name, bp, featEpoch)
	}

	// Replay the continuation once per operating point, recording
	// completion time and scaling-window instruction counts. With both
	// windows at the default every ForceLevel is a no-op, so that replay is
	// the reference run: it completes at T0, and runs only as far as its
	// scaling window.
	execPs := make([]int64, levels)
	screcs := make([]*epochRecorder, levels)
	for level := 0; level < levels; level++ {
		replay, srec := scalingWindow(fsim, b, epochPs, level)
		screcs[level] = srec
		if featLevel == defaultLevel && level == defaultLevel {
			execPs[level] = t0
			continue
		}
		replay.ForceLevel(defaultLevel)
		res := replay.Run(cfg.MaxRunPs)
		if !res.Completed {
			return nil, fmt.Errorf("datagen: %s breakpoint %d level %d: replay did not complete",
				kernel.Name, bp, level)
		}
		execPs[level] = res.ExecTimePs
	}

	// The label is the *window-normalized* performance loss: the extra
	// execution time caused by scaling one 10 µs window — measured over the
	// whole remaining run, so delayed effects (stalled warps resuming
	// epochs later) are included — divided by the window length, relative
	// to the replay whose scaling window ran at the default OP. Normalizing
	// by the window rather than by T0 makes the label compose: if every
	// epoch's decision keeps its window-local loss under the preset,
	// program-level loss stays under the preset too, which is exactly the
	// contract the runtime controller needs.
	var samples []Sample
	refPs := execPs[defaultLevel]
	for level := 0; level < levels; level++ {
		perfLoss := float64(execPs[level]-refPs) / float64(epochPs)
		for c := 0; c < cfg.Sim.Clusters; c += cfg.ClusterStride {
			fs, ok := rec.stats[c]
			if !ok {
				continue
			}
			ss := screcs[level].stats[c]
			samples = append(samples, Sample{
				Kernel:       kernel.Name,
				Breakpoint:   bp,
				Cluster:      c,
				Level:        level,
				Features:     counters.FromStats(fs),
				PerfLoss:     perfLoss,
				ScalingInstr: float64(ss.Instructions),
			})
		}
		logf("datagen: %s bp=%d feat=%d level=%d loss=%+.3f%%",
			kernel.Name, bp, featLevel, level, perfLoss*100)
	}
	return samples, nil
}

// SuiteOptions configures a corpus build over a kernel set, mirroring
// experiments.PipelineOptions.
type SuiteOptions struct {
	// Config controls generation for every kernel.
	Config Config
	// Kernels contribute samples in order; each kernel is a root task of
	// the parallel run, and each of its (breakpoint, feature level) windows
	// a task of its own.
	Kernels []isa.Kernel
	// Logger receives progress lines (nil = quiet). It is shared across
	// tasks, so lines from different kernels interleave under parallelism;
	// the dataset itself does not.
	Logger *telemetry.Logger
	// Telemetry, when non-nil, receives the runner's shard/utilization
	// metrics.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records one span per kernel, from its root's
	// start to the end of its last task, plus the runner's per-worker
	// shard span for every task.
	Tracer *telemetry.Tracer
	// Workers bounds the worker pool (<= 0 = GOMAXPROCS). The merged
	// dataset is byte-identical at any worker count.
	Workers int
}

// RunSuite generates the corpus for every kernel in opts on a bounded
// worker pool. A kernel's root task runs its reference and master and
// hands each (breakpoint, feature level) window to the pool as a task of
// its own; every task writes its samples into its own slot, and the slots
// are merged in kernel, breakpoint and feature-level order, so the result
// serializes byte-identically to a serial run regardless of Workers. The
// first failure cancels the tasks not yet started and is reported with the
// failing kernel's index.
func RunSuite(opts SuiteOptions) (*Dataset, error) {
	if len(opts.Kernels) == 0 {
		return nil, fmt.Errorf("datagen: suite has no kernels")
	}
	if err := opts.Config.validate(); err != nil {
		return nil, err
	}
	slots := make([][][]Sample, len(opts.Kernels))
	err := runner.Tasks(context.Background(), len(opts.Kernels), runner.Options{
		Name:      "datagen",
		Workers:   opts.Workers,
		Telemetry: opts.Telemetry,
		Tracer:    opts.Tracer,
	}, func(_ context.Context, t *runner.Task) (err error) {
		kernel := opts.Kernels[t.Index]
		sp := opts.Tracer.Start("datagen:" + kernel.Name)
		sp.SetCat("pipeline")
		slots[t.Index], err = generate(t, opts.Config, kernel, opts.Logger, sp.End)
		return err
	})
	if err != nil {
		return nil, err
	}
	ds := &Dataset{CounterNames: counters.Names(), Levels: opts.Config.Sim.OPs.Len()}
	for _, kernel := range slots {
		for _, samples := range kernel {
			ds.Samples = append(ds.Samples, samples...)
		}
	}
	return ds, nil
}

// Save writes the dataset as compact JSON and a newline, the one form
// Load reads.
func (d *Dataset) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(d)
}

// validate checks the decoded shape invariants Load and LoadFile rely
// on. Every consumer reads features by position (counters.Idx*, a model's
// FeatureIdx), so the counter layout must be the program's own: a corpus
// with its columns in another order would train on the wrong counters,
// and a narrower one would run feature indices off its rows.
func (d *Dataset) validate() error {
	if len(d.CounterNames) == 0 {
		return fmt.Errorf("datagen: dataset has no counter names")
	}
	for i, s := range d.Samples {
		if len(s.Features) != len(d.CounterNames) {
			return fmt.Errorf("datagen: sample %d has %d features, want %d", i, len(s.Features), len(d.CounterNames))
		}
		if s.Level < 0 || s.Level >= d.Levels {
			return fmt.Errorf("datagen: sample %d level %d out of range [0,%d)", i, s.Level, d.Levels)
		}
	}
	want := counters.Names()
	for i := 0; i < max(len(want), len(d.CounterNames)); i++ {
		switch {
		case i >= len(d.CounterNames):
			return fmt.Errorf("datagen: dataset has %d counters, want %d: counter %d (%q) is missing", len(d.CounterNames), len(want), i, want[i])
		case i >= len(want):
			return fmt.Errorf("datagen: dataset has %d counters, want %d: counter %d (%q) is extra", len(d.CounterNames), len(want), i, d.CounterNames[i])
		case d.CounterNames[i] != want[i]:
			return fmt.Errorf("datagen: counter %d is %q, want %q", i, d.CounterNames[i], want[i])
		}
	}
	return nil
}

// Load reads a dataset saved with Save and validates its shape. It reads
// r to the end and decodes it with the corpus decoder (decode.go), which
// accepts only the form Save writes and refuses any other input with the
// offset where it departs from that form.
func Load(r io.Reader) (*Dataset, error) {
	data, err := readInput(r)
	if err != nil {
		return nil, fmt.Errorf("datagen: decoding dataset: %w", err)
	}
	var d Dataset
	if err := decodeDataset(data, &d); err != nil {
		return nil, fmt.Errorf("datagen: decoding dataset: %w", err)
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// SaveFile writes the dataset to path with Save, atomically (temp file +
// rename).
func (d *Dataset) SaveFile(path string) error {
	return atomicfile.Write(path, d.Save)
}

// LoadFile reads a dataset from path.
func LoadFile(path string) (*Dataset, error) {
	return atomicfile.ReadWith(path, Load)
}
