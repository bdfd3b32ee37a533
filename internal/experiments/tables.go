package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"ssmdvfs/internal/asic"
	"ssmdvfs/internal/compress"
	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/datagen"
	"ssmdvfs/internal/features"
	"ssmdvfs/internal/infer"
	"ssmdvfs/internal/runner"
	"ssmdvfs/internal/telemetry"
)

// TableIResult is the feature-selection experiment (Table I): the RFE
// outcome over the 47 counters and its agreement with the paper's set.
type TableIResult struct {
	RFE *features.Result
	// SelectedNames are the final counters by name.
	SelectedNames []string
	// PaperAgreement is how many of the paper's five counters RFE also
	// selected.
	PaperAgreement int
	// AccuracyDropPct is the accuracy cost of the refinement (paper:
	// 0.48%).
	AccuracyDropPct float64
}

// RunTableI performs RFE on the dataset.
func RunTableI(ds *datagen.Dataset, cfg features.Config) (*TableIResult, error) {
	rfe, err := features.Run(ds, cfg)
	if err != nil {
		return nil, err
	}
	res := &TableIResult{RFE: rfe}
	paper := map[int]bool{}
	for _, i := range counters.SelectedFive() {
		paper[i] = true
	}
	for _, i := range rfe.Selected {
		res.SelectedNames = append(res.SelectedNames, counters.Def(i).Name)
		if paper[i] {
			res.PaperAgreement++
		}
	}
	res.AccuracyDropPct = (rfe.FullAccuracy - rfe.SelectedAccuracy) * 100
	return res, nil
}

// WriteTable renders the Table I result.
func (t *TableIResult) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric category\tselected counter")
	for _, i := range t.RFE.Selected {
		d := counters.Def(i)
		fmt.Fprintf(tw, "%s\t%s\n", d.Category, d.Name)
	}
	fmt.Fprintf(tw, "\nfull-set accuracy\t%.2f%%\n", t.RFE.FullAccuracy*100)
	fmt.Fprintf(tw, "selected accuracy\t%.2f%%\n", t.RFE.SelectedAccuracy*100)
	fmt.Fprintf(tw, "accuracy drop\t%.2f%%\n", t.AccuracyDropPct)
	fmt.Fprintf(tw, "agreement with paper's five\t%d/%d\n", t.PaperAgreement, len(counters.SelectedFive()))
	return tw.Flush()
}

// TableIIResult compares the model before and after compression, the
// quantities of the paper's Table II.
type TableIIResult struct {
	Before core.Report
	After  core.Report
	// BeforeSizes / AfterSizes describe both heads' layer shapes.
	BeforeDecision   []int
	BeforeCalibrator []int
	AfterDecision    []int
	AfterCalibrator  []int
	// CompressionPct is the FLOPs reduction (paper: 94.74%).
	CompressionPct float64
}

// RunTableII builds the before/after comparison from the pipeline
// artifacts.
func RunTableII(p *Pipeline) *TableIIResult {
	res := &TableIIResult{
		Before:           p.Report,
		After:            p.CompressedReport,
		BeforeDecision:   p.Model.Decision.Sizes(),
		BeforeCalibrator: p.Model.Calibrator.Sizes(),
		AfterDecision:    p.Compressed.Decision.Sizes(),
		AfterCalibrator:  p.Compressed.Calibrator.Sizes(),
	}
	if p.Report.FLOPs > 0 {
		res.CompressionPct = (1 - float64(p.Compressed.EffectiveFLOPs())/float64(p.Report.FLOPs)) * 100
	}
	return res
}

// WriteTable renders the Table II comparison.
func (t *TableIIResult) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "model information\tbefore compression\tafter compression")
	fmt.Fprintf(tw, "decision layers\t%v\t%v\n", t.BeforeDecision, t.AfterDecision)
	fmt.Fprintf(tw, "calibrator layers\t%v\t%v\n", t.BeforeCalibrator, t.AfterCalibrator)
	fmt.Fprintf(tw, "FLOPs\t%d\t%d\n", t.Before.FLOPs, t.After.FLOPs)
	fmt.Fprintf(tw, "accuracy\t%.2f%%\t%.2f%%\n", t.Before.Accuracy*100, t.After.Accuracy*100)
	fmt.Fprintf(tw, "MAPE\t%.2f%%\t%.2f%%\n", t.Before.MAPE, t.After.MAPE)
	fmt.Fprintf(tw, "FLOPs compression\t\t%.2f%%\n", t.CompressionPct)
	return tw.Flush()
}

// Fig3Result carries both compression curves of Fig. 3.
type Fig3Result struct {
	Layerwise []compress.Point
	Pruning   []compress.Point
}

// Fig3Options configures the sweeps.
type Fig3Options struct {
	// Archs is the layer-wise grid (defaults to compress.StandardGrid).
	Archs []core.Architecture
	// X1s / X2s form the pruning grid.
	X1s, X2s  []float64
	TrainOpts core.TrainOptions
	PruneOpts compress.PruneOptions
	// Workers bounds the parallel runner sharding the independent grid
	// points (<= 0 = GOMAXPROCS); results are byte-identical at any
	// worker count.
	Workers int
	// Telemetry / Tracer, when non-nil, receive the runner's shard
	// metrics and per-worker spans.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
}

// DefaultFig3Options returns the paper-style sweep grids.
func DefaultFig3Options() Fig3Options {
	return Fig3Options{
		Archs:     compress.StandardGrid(),
		X1s:       []float64{0.2, 0.4, 0.6, 0.8},
		X2s:       []float64{0.5, 0.7, 0.9},
		TrainOpts: core.DefaultTrainOptions(),
		PruneOpts: compress.DefaultPruneOptions(),
	}
}

// RunFig3 executes both sweeps: layer-wise over architectures, pruning
// over (x1, x2) starting from the given trained model. Every grid point
// is an independent training run, sharded across the worker pool; the
// curves come back in grid order, identical at any worker count.
func RunFig3(ds *datagen.Dataset, base *core.Model, opts Fig3Options) (*Fig3Result, error) {
	if len(opts.Archs) == 0 {
		return nil, fmt.Errorf("compress: empty architecture grid")
	}
	if len(opts.X1s) == 0 || len(opts.X2s) == 0 {
		return nil, fmt.Errorf("compress: empty pruning grid")
	}
	runnerOpts := func(name string) runner.Options {
		return runner.Options{
			Name:      name,
			Workers:   opts.Workers,
			Telemetry: opts.Telemetry,
			Tracer:    opts.Tracer,
		}
	}
	ctx := context.Background()
	lw, err := runner.Map(ctx, len(opts.Archs), runnerOpts("fig3:layerwise"),
		func(_ context.Context, s runner.Shard) (compress.Point, error) {
			return compress.LayerwisePoint(ds, opts.Archs[s.Index], opts.TrainOpts)
		})
	if err != nil {
		return nil, err
	}
	// Pruning grid flattened x1-major, matching the serial nesting.
	n2 := len(opts.X2s)
	pr, err := runner.Map(ctx, len(opts.X1s)*n2, runnerOpts("fig3:pruning"),
		func(_ context.Context, s runner.Shard) (compress.Point, error) {
			return compress.PrunePoint(base, ds, opts.X1s[s.Index/n2], opts.X2s[s.Index%n2], opts.PruneOpts)
		})
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Layerwise: lw, Pruning: pr}, nil
}

// WriteTable renders both Fig. 3 series.
func (f *Fig3Result) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "series\tconfig\tflops\taccuracy\tmape")
	for _, p := range f.Layerwise {
		fmt.Fprintf(tw, "layerwise\t%s\t%d\t%.2f%%\t%.2f%%\n", p.Label, p.FLOPs, p.Accuracy*100, p.MAPE)
	}
	for _, p := range f.Pruning {
		fmt.Fprintf(tw, "pruning\t%s\t%d\t%.2f%%\t%.2f%%\n", p.Label, p.FLOPs, p.Accuracy*100, p.MAPE)
	}
	return tw.Flush()
}

// RunASIC estimates the Section V-D hardware implementation for the
// compressed model.
func RunASIC(m *core.Model) (asic.Report, error) {
	return asic.Estimate(m, asic.DefaultConfig())
}

// quantizeModel returns a copy of m with both heads fake-quantized at bits
// by infer.Quantize.
func quantizeModel(m *core.Model, bits int) (*core.Model, error) {
	q := m.Clone()
	var err error
	if q.Decision, err = infer.Quantize(m.Decision, bits); err != nil {
		return nil, fmt.Errorf("experiments: decision head: %w", err)
	}
	if q.Calibrator, err = infer.Quantize(m.Calibrator, bits); err != nil {
		return nil, fmt.Errorf("experiments: calibrator head: %w", err)
	}
	return q, nil
}

// QuantPoint is one bit width on the quantization curve.
type QuantPoint struct {
	Bits     int
	Accuracy float64
	MAPE     float64
}

// QuantSweep fake-quantizes m at each bit width and evaluates it on ds,
// producing the accuracy/MAPE-vs-bits curve.
func QuantSweep(m *core.Model, ds *datagen.Dataset, bitWidths []int) ([]QuantPoint, error) {
	var out []QuantPoint
	for _, bits := range bitWidths {
		q, err := quantizeModel(m, bits)
		if err != nil {
			return nil, err
		}
		rep := core.Evaluate(q, ds)
		out = append(out, QuantPoint{Bits: bits, Accuracy: rep.Accuracy, MAPE: rep.MAPE})
	}
	return out, nil
}

// RunASICInt estimates RunASIC's engine built from b-bit integer MACs
// (asic.HardwareScale) and running m fake-quantized at b bits.
func RunASICInt(m *core.Model, bits int) (asic.Report, error) {
	areaF, energyF, err := asic.HardwareScale(bits)
	if err != nil {
		return asic.Report{}, err
	}
	q, err := quantizeModel(m, bits)
	if err != nil {
		return asic.Report{}, err
	}
	cfg := asic.DefaultConfig()
	cfg.MACAreaUm2 *= areaF
	cfg.MACEnergyPJ *= energyF
	return asic.Estimate(q, cfg)
}

// WriteASIC renders the hardware estimate.
func WriteASIC(w io.Writer, rep asic.Report) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "cycles per inference\t%d\n", rep.CyclesPerInference)
	fmt.Fprintf(tw, "latency\t%.3f us\n", rep.LatencyUs)
	fmt.Fprintf(tw, "fraction of 10us epoch\t%.2f%%\n", rep.EpochFraction*100)
	fmt.Fprintf(tw, "area @28nm\t%.4f mm^2\n", rep.AreaMM2)
	fmt.Fprintf(tw, "energy per inference\t%.1f pJ\n", rep.EnergyPJ)
	fmt.Fprintf(tw, "power during inference\t%.4f W\n", rep.PowerW)
	fmt.Fprintf(tw, "weight storage\t%d bytes\n", rep.WeightBytes)
	return tw.Flush()
}
