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

// generate runs the methodology over one kernel and appends samples to
// the dataset. It is a pure shard function: its output depends only on
// cfg and kernel, which is what lets RunSuite farm kernels out to a
// worker pool and still merge a byte-identical corpus.
func generate(cfg Config, kernel isa.Kernel, ds *Dataset, log *telemetry.Logger) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	logf := log.Logf
	epochPs := cfg.Sim.EpochPs
	levels := cfg.Sim.OPs.Len()
	defaultLevel := cfg.Sim.OPs.Default()

	if ds.CounterNames == nil {
		ds.CounterNames = counters.Names()
		ds.Levels = levels
	}

	// Reference run: the whole program at the default operating point.
	ref, err := gpusim.New(cfg.Sim, kernel)
	if err != nil {
		return err
	}
	master := ref.Clone()
	refRes := ref.Run(cfg.MaxRunPs)
	if !refRes.Completed {
		return fmt.Errorf("datagen: kernel %q did not complete within MaxRunPs at default OP", kernel.Name)
	}
	t0 := refRes.ExecTimePs
	logf("datagen: %s T0=%.1fus", kernel.Name, float64(t0)/1e6)

	// Walk the master simulation breakpoint by breakpoint. A breakpoint at
	// time b uses epoch [b, b+10µs) as the feature window and epoch
	// [b+10µs, b+20µs) as the scaling window, so the last usable
	// breakpoint leaves at least two epochs before completion. Programs
	// too short for the configured interval fall back to one breakpoint
	// per epoch so short-duration tasks still contribute data.
	interval := cfg.BreakpointPs
	if interval+2*epochPs >= t0 {
		interval = epochPs
	}
	nBreaks := 0
	for b := interval; b+2*epochPs < t0; b += interval {
		if cfg.MaxBreakpoints > 0 && nBreaks >= cfg.MaxBreakpoints {
			break
		}
		nBreaks++

		// Advance the master (always at the default OP) to the breakpoint.
		master.RunUntil(b)

		featEpoch := int(b / epochPs)
		scaleEpoch := featEpoch + 1
		featureLevels := cfg.FeatureLevels
		if len(featureLevels) == 0 {
			featureLevels = allLevels(levels)
		}

		// Runtime feature windows execute at whatever OP the controller
		// last chose, not only the default, so the corpus covers feature
		// windows at every requested level (the paper collects only at
		// the default; see DESIGN.md for why the closed-loop distribution
		// needs the extension).
		for _, featLevel := range featureLevels {
			fsim := master.Clone()
			fsim.ForceLevel(featLevel)
			rec := newEpochRecorder(featEpoch)
			fsim.SetObserver(rec.observe)
			fsim.RunUntil(b + epochPs + 1)
			fsim.SetObserver(nil)
			if len(rec.stats) == 0 {
				return fmt.Errorf("datagen: %s breakpoint %d: feature window epoch %d not observed",
					kernel.Name, nBreaks, featEpoch)
			}

			// Replay the continuation once per operating point, recording
			// completion time and scaling-window instruction counts.
			execPs := make([]int64, levels)
			screcs := make([]*epochRecorder, levels)
			for level := 0; level < levels; level++ {
				replay := fsim.Clone()
				srec := newEpochRecorder(scaleEpoch)
				replay.SetObserver(srec.observe)
				replay.ForceLevel(level)
				replay.RunUntil(b + 2*epochPs + 1)
				replay.ForceLevel(defaultLevel)
				replay.SetObserver(nil)
				res := replay.Run(cfg.MaxRunPs)
				if !res.Completed {
					return fmt.Errorf("datagen: %s breakpoint %d level %d: replay did not complete",
						kernel.Name, nBreaks, level)
				}
				execPs[level] = res.ExecTimePs
				screcs[level] = srec
			}

			// The label is the *window-normalized* performance loss: the
			// extra execution time caused by scaling one 10 µs window —
			// measured over the whole remaining run, so delayed effects
			// (stalled warps resuming epochs later) are included — divided
			// by the window length, relative to the replay whose scaling
			// window ran at the default OP. Normalizing by the window
			// rather than by T0 makes the label compose: if every epoch's
			// decision keeps its window-local loss under the preset,
			// program-level loss stays under the preset too, which is
			// exactly the contract the runtime controller needs.
			refPs := execPs[defaultLevel]
			for level := 0; level < levels; level++ {
				perfLoss := float64(execPs[level]-refPs) / float64(epochPs)
				for c := 0; c < cfg.Sim.Clusters; c += cfg.ClusterStride {
					fs, ok := rec.stats[c]
					if !ok {
						continue
					}
					ss := screcs[level].stats[c]
					ds.Samples = append(ds.Samples, Sample{
						Kernel:       kernel.Name,
						Breakpoint:   nBreaks,
						Cluster:      c,
						Level:        level,
						Features:     counters.FromStats(fs),
						PerfLoss:     perfLoss,
						ScalingInstr: float64(ss.Instructions),
					})
				}
				logf("datagen: %s bp=%d feat=%d level=%d loss=%+.3f%%",
					kernel.Name, nBreaks, featLevel, level, perfLoss*100)
			}
		}
	}
	if nBreaks == 0 {
		return fmt.Errorf("datagen: kernel %q too short for any breakpoint (T0=%d ps, interval=%d ps)",
			kernel.Name, t0, cfg.BreakpointPs)
	}
	return nil
}

// SuiteOptions configures a corpus build over a kernel set, mirroring
// experiments.PipelineOptions.
type SuiteOptions struct {
	// Config controls generation for every kernel.
	Config Config
	// Kernels contribute samples in order; each kernel is one shard of
	// the parallel run.
	Kernels []isa.Kernel
	// Logger receives progress lines (nil = quiet). It is shared across
	// shards, so lines from different kernels interleave under
	// parallelism; the dataset itself does not.
	Logger *telemetry.Logger
	// Telemetry, when non-nil, receives the runner's shard/utilization
	// metrics.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records one span per kernel plus the
	// runner's per-worker shard spans.
	Tracer *telemetry.Tracer
	// Workers bounds the worker pool (<= 0 = GOMAXPROCS). The merged
	// dataset is byte-identical at any worker count.
	Workers int
}

// RunSuite generates the corpus for every kernel in opts, sharding
// kernels across a bounded worker pool. Each shard generates into a
// private dataset; the shards are merged in kernel order, so the result
// serializes byte-identically to a serial run regardless of Workers.
// The first failing kernel cancels the remaining shards and is reported
// with its shard identity.
func RunSuite(opts SuiteOptions) (*Dataset, error) {
	if len(opts.Kernels) == 0 {
		return nil, fmt.Errorf("datagen: suite has no kernels")
	}
	if err := opts.Config.validate(); err != nil {
		return nil, err
	}
	parts, err := runner.Map(context.Background(), len(opts.Kernels), runner.Options{
		Name:      "datagen",
		Workers:   opts.Workers,
		Telemetry: opts.Telemetry,
		Tracer:    opts.Tracer,
	}, func(_ context.Context, s runner.Shard) (*Dataset, error) {
		kernel := opts.Kernels[s.Index]
		sp := opts.Tracer.Start("datagen:" + kernel.Name)
		sp.SetCat("pipeline")
		defer sp.End()
		part := &Dataset{}
		if err := generate(opts.Config, kernel, part, opts.Logger); err != nil {
			return nil, err
		}
		return part, nil
	})
	if err != nil {
		return nil, err
	}
	return Merge(parts), nil
}

// Merge concatenates per-kernel datasets in order into one corpus. All
// parts must share the counter layout (they do when produced by
// generate); the first non-empty header wins.
func Merge(parts []*Dataset) *Dataset {
	out := &Dataset{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		if out.CounterNames == nil {
			out.CounterNames = p.CounterNames
			out.Levels = p.Levels
		}
		out.Samples = append(out.Samples, p.Samples...)
	}
	return out
}

// Save writes the dataset as JSON.
func (d *Dataset) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(d)
}

// validate checks the decoded shape invariants Load and LoadFile rely
// on.
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
	return nil
}

// Load reads a dataset saved with Save and validates its shape.
func Load(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("datagen: decoding dataset: %w", err)
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// SaveFile writes the dataset to path atomically (temp file + rename).
func (d *Dataset) SaveFile(path string) error {
	return atomicfile.WriteJSON(path, d)
}

// LoadFile reads a dataset from path.
func LoadFile(path string) (*Dataset, error) {
	return atomicfile.ReadWith(path, Load)
}
