package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/kernels"
	"ssmdvfs/internal/oracle"
	"ssmdvfs/internal/runner"
	"ssmdvfs/internal/telemetry"
)

// PresetSweepOptions configures the preset-sensitivity extension
// experiment: how EDP and latency respond as the performance-loss budget
// grows (the paper evaluates only 10% and 20%).
type PresetSweepOptions struct {
	Sim      gpusim.Config
	Kernels  []kernels.Spec
	Scale    float64
	Presets  []float64
	Model    *core.Model
	MaxRunPs int64
	// Workers bounds the parallel runner sharding the independent
	// (preset, kernel) simulations (<= 0 = GOMAXPROCS); results are
	// byte-identical at any worker count.
	Workers int
	// Telemetry / Tracer, when non-nil, receive the runner's shard
	// metrics and per-worker spans.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
}

// runnerOptions builds the shared runner config for one sweep stage.
func (opts *PresetSweepOptions) runnerOptions(name string) runner.Options {
	return runner.Options{
		Name:      name,
		Workers:   opts.Workers,
		Telemetry: opts.Telemetry,
		Tracer:    opts.Tracer,
	}
}

// PresetSweepPoint aggregates one preset across kernels.
type PresetSweepPoint struct {
	Preset      float64
	GMeanEDP    float64
	MeanLatency float64
	MaxLoss     float64
	Violations  int
}

// RunPresetSweep runs SSMDVFS at each preset over the kernel set. The
// per-kernel baselines and the (preset × kernel) controller runs are
// independent simulations, sharded across the worker pool; aggregation
// happens in (preset, kernel) order so the points match a serial run
// exactly.
func RunPresetSweep(opts PresetSweepOptions) ([]PresetSweepPoint, error) {
	if opts.Model == nil {
		return nil, fmt.Errorf("experiments: preset sweep requires a model")
	}
	if len(opts.Kernels) == 0 || len(opts.Presets) == 0 {
		return nil, fmt.Errorf("experiments: preset sweep requires kernels and presets")
	}
	if opts.Scale <= 0 {
		opts.Scale = 1.0
	}
	if opts.MaxRunPs <= 0 {
		opts.MaxRunPs = 5_000_000_000_000
	}

	built := make([]gpusim.Kernel, len(opts.Kernels))
	for i, spec := range opts.Kernels {
		built[i] = spec.Build(opts.Scale)
	}
	ctx := context.Background()
	bases, err := runner.Map(ctx, len(built), opts.runnerOptions("sweep:baseline"),
		func(_ context.Context, s runner.Shard) (gpusim.Result, error) {
			res, err := runOnce(opts.Sim, built[s.Index], nil, opts.MaxRunPs)
			if err != nil {
				return gpusim.Result{}, fmt.Errorf("experiments: baseline %s: %w", opts.Kernels[s.Index].Name, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}

	// One shard per (preset, kernel) cell, flattened preset-major so the
	// merged order matches the serial nesting.
	type cell struct{ edp, lat float64 }
	nk := len(built)
	cells, err := runner.Map(ctx, len(opts.Presets)*nk, opts.runnerOptions("sweep"),
		func(_ context.Context, s runner.Shard) (cell, error) {
			preset := opts.Presets[s.Index/nk]
			i := s.Index % nk
			ctrl, err := NewSSMDVFS(opts.Model, preset, opts.Sim, true)
			if err != nil {
				return cell{}, err
			}
			res, err := runOnce(opts.Sim, built[i], ctrl, opts.MaxRunPs)
			if err != nil {
				return cell{}, fmt.Errorf("experiments: %s at preset %.2f: %w", opts.Kernels[i].Name, preset, err)
			}
			return cell{
				edp: res.EDP() / bases[i].EDP(),
				lat: float64(res.ExecTimePs) / float64(bases[i].ExecTimePs),
			}, nil
		})
	if err != nil {
		return nil, err
	}

	var points []PresetSweepPoint
	for pi, preset := range opts.Presets {
		var edps, lats []float64
		maxLoss := 0.0
		violations := 0
		for i := 0; i < nk; i++ {
			c := cells[pi*nk+i]
			edps = append(edps, c.edp)
			lats = append(lats, c.lat)
			loss := c.lat - 1
			if loss > maxLoss {
				maxLoss = loss
			}
			if loss > preset+1e-9 {
				violations++
			}
		}
		g, err := geoMean(edps)
		if err != nil {
			return nil, err
		}
		points = append(points, PresetSweepPoint{
			Preset:      preset,
			GMeanEDP:    g,
			MeanLatency: mean(lats),
			MaxLoss:     maxLoss,
			Violations:  violations,
		})
	}
	return points, nil
}

// WritePresetSweep renders the sweep as a table.
func WritePresetSweep(w io.Writer, points []PresetSweepPoint) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "preset\tgmean_edp\tmean_latency\tmax_loss\tviolations")
	for _, p := range points {
		fmt.Fprintf(tw, "%.0f%%\t%.3f\t%.3f\t%.2f%%\t%d\n",
			p.Preset*100, p.GMeanEDP, p.MeanLatency, p.MaxLoss*100, p.Violations)
	}
	return tw.Flush()
}

// HeadroomRow compares SSMDVFS against the clairvoyant oracle policies on
// one kernel.
type HeadroomRow struct {
	Kernel string
	// All EDPs normalized to the default-OP baseline.
	SSMDVFSEDP    float64
	StaticBestEDP float64
	GreedyEDP     float64
	StaticLevel   int
}

// RunHeadroom measures how much EDP the clairvoyant policies leave on the
// table relative to SSMDVFS at the given preset. Each kernel's row —
// baseline, SSMDVFS, and both oracle probes — is one shard of the
// parallel run; rows come back in kernel order.
func RunHeadroom(opts PresetSweepOptions, preset float64) ([]HeadroomRow, error) {
	if opts.Model == nil {
		return nil, fmt.Errorf("experiments: headroom requires a model")
	}
	if opts.Scale <= 0 {
		opts.Scale = 1.0
	}
	if opts.MaxRunPs <= 0 {
		opts.MaxRunPs = 5_000_000_000_000
	}
	return runner.Map(context.Background(), len(opts.Kernels), opts.runnerOptions("headroom"),
		func(_ context.Context, s runner.Shard) (HeadroomRow, error) {
			spec := opts.Kernels[s.Index]
			k := spec.Build(opts.Scale)
			base, err := runOnce(opts.Sim, k, nil, opts.MaxRunPs)
			if err != nil {
				return HeadroomRow{}, err
			}

			ctrl, err := NewSSMDVFS(opts.Model, preset, opts.Sim, true)
			if err != nil {
				return HeadroomRow{}, err
			}
			ssm, err := runOnce(opts.Sim, k, ctrl, opts.MaxRunPs)
			if err != nil {
				return HeadroomRow{}, err
			}

			staticRes, bestLvl, err := oracle.StaticBest(opts.Sim, k, preset, oracle.EDPObjective, opts.MaxRunPs)
			if err != nil {
				return HeadroomRow{}, err
			}
			greedy, err := oracle.Greedy(opts.Sim, k, oracle.GreedyOptions{
				Preset: preset, MaxRunPs: opts.MaxRunPs,
				// A bounded horizon keeps the probe cost manageable; the
				// greedy oracle remains an upper-bound estimate.
				HorizonPs: 5 * opts.Sim.EpochPs,
			})
			if err != nil {
				return HeadroomRow{}, err
			}

			return HeadroomRow{
				Kernel:        spec.Name,
				SSMDVFSEDP:    ssm.EDP() / base.EDP(),
				StaticBestEDP: staticRes[bestLvl].EDP() / base.EDP(),
				GreedyEDP:     greedy.Result.EDP() / base.EDP(),
				StaticLevel:   bestLvl,
			}, nil
		})
}

// WriteHeadroom renders the oracle comparison.
func WriteHeadroom(w io.Writer, rows []HeadroomRow) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "kernel\tssmdvfs_edp\tstatic_best_edp\tgreedy_oracle_edp\tstatic_level")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%d\n",
			r.Kernel, r.SSMDVFSEDP, r.StaticBestEDP, r.GreedyEDP, r.StaticLevel)
	}
	return tw.Flush()
}
