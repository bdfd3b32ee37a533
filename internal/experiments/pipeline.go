// Package experiments is the harness that reproduces every table and
// figure in the paper's evaluation: the end-to-end pipeline (data
// generation → training → compression), the Table I feature selection,
// the Table II compression summary, the Fig. 3 FLOPs-vs-quality sweeps,
// the Fig. 4 full-system comparison, the Section V-D hardware estimate,
// and the ablations DESIGN.md calls out.
package experiments

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ssmdvfs/internal/compress"
	"ssmdvfs/internal/core"
	"ssmdvfs/internal/datagen"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/isa"
	"ssmdvfs/internal/kernels"
	"ssmdvfs/internal/telemetry"
)

// PipelineOptions configures the end-to-end build of the SSMDVFS models.
type PipelineOptions struct {
	// Sim is the GPU configuration used for data generation.
	Sim gpusim.Config
	// Scale shortens (<1) or lengthens (>1) every kernel.
	Scale float64
	// TrainKernels generate the dataset (defaults to kernels.Training()).
	TrainKernels []kernels.Spec
	// BreakpointPs / MaxBreakpoints / ClusterStride feed datagen.Config.
	BreakpointPs   int64
	MaxBreakpoints int
	ClusterStride  int

	// TrainOpts configures the uncompressed model's training.
	TrainOpts core.TrainOptions
	// PruneOpts configures compression of the deployed model.
	PruneOpts compress.PruneOptions

	// CacheDir, when non-empty, caches the dataset and models as JSON so
	// repeated experiment runs skip regeneration.
	CacheDir string
	// Workers bounds the parallel runner that shards per-kernel data
	// generation (<= 0 = GOMAXPROCS). Output is byte-identical at any
	// worker count.
	Workers int
	// Logger is the telemetry-backed progress logger; a nil *Logger is
	// valid and keeps the run quiet. Adapt printf-style callbacks with
	// telemetry.NewLoggerFunc.
	Logger *telemetry.Logger
	// Telemetry, when non-nil, receives pipeline counters (samples
	// generated, cache hits/misses) and per-phase duration histograms.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records one span per pipeline phase
	// (datagen → train → compress → prune), exportable to Chrome
	// trace-event format.
	Tracer *telemetry.Tracer
}

// DefaultPipelineOptions returns the paper-faithful full-scale setup.
func DefaultPipelineOptions() PipelineOptions {
	opts := PipelineOptions{
		Sim:           gpusim.TitanXConfig(),
		Scale:         1.0,
		BreakpointPs:  100_000_000,
		ClusterStride: 2,
		TrainOpts:     core.DefaultTrainOptions(),
		PruneOpts:     compress.DefaultPruneOptions(),
	}
	// Full-scale datasets are large enough that the pruned model needs a
	// longer fine-tune to recover the Calibrator's regression quality.
	opts.PruneOpts.FineTuneEpochs = 60
	return opts
}

// QuickPipelineOptions returns a reduced setup (small GPU, short kernels,
// subsampled clusters) that builds in seconds, for tests and benchmarks.
func QuickPipelineOptions() PipelineOptions {
	opts := DefaultPipelineOptions()
	opts.Sim = gpusim.SmallConfig()
	opts.Scale = 0.4
	opts.BreakpointPs = 50_000_000
	opts.MaxBreakpoints = 2
	opts.ClusterStride = 1
	opts.TrainKernels = kernels.Training()
	opts.TrainOpts.Epochs = 50
	opts.PruneOpts.FineTuneEpochs = 30
	return opts
}

// Pipeline holds the build artifacts.
type Pipeline struct {
	Dataset *datagen.Dataset
	// Model is the uncompressed (paper-initial architecture) model and
	// Compressed the deployed pruned model. Each report is the model's
	// evaluation on the whole corpus (training and validation samples), so
	// a cold and a warm cache report the same numbers.
	Model            *core.Model
	Report           core.Report
	Compressed       *core.Model
	CompressedReport core.Report
}

// phaseSpan opens one pipeline-phase span (nil-safe on a nil tracer).
func (opts *PipelineOptions) phaseSpan(name string, attrs ...string) *telemetry.Span {
	sp := opts.Tracer.Start(name, attrs...)
	sp.SetCat("pipeline")
	return sp
}

// RunPipeline executes (or loads from cache) the full build.
func RunPipeline(opts PipelineOptions) (*Pipeline, error) {
	logf := opts.Logger.Logf
	if opts.Scale <= 0 {
		return nil, fmt.Errorf("experiments: Scale must be positive")
	}
	trainKernels := opts.TrainKernels
	if trainKernels == nil {
		trainKernels = kernels.Training()
	}
	if len(trainKernels) == 0 {
		return nil, fmt.Errorf("experiments: no training kernels")
	}
	if opts.CacheDir != "" {
		if err := os.MkdirAll(opts.CacheDir, 0o755); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}

	p := &Pipeline{}
	var dsHit, modelHit, compHit bool
	var err error
	p.Dataset, dsHit, err = stage(&opts, "datagen", "dataset", datagen.LoadFile, func() (*datagen.Dataset, error) {
		return generateDataset(&opts, trainKernels)
	}, "kernels", strconv.Itoa(len(trainKernels)))
	if err != nil {
		return nil, err
	}
	if dsHit {
		logf("experiments: loaded cached dataset (%d samples)", len(p.Dataset.Samples))
	}

	p.Model, modelHit, err = stage(&opts, "train", "model", core.LoadFile, func() (*core.Model, error) {
		m, _, err := core.Train(p.Dataset, opts.TrainOpts)
		return m, err
	}, "epochs", strconv.Itoa(opts.TrainOpts.Epochs))
	if err != nil {
		return nil, err
	}

	// Compressed model: retrain at the compressed architecture, then
	// prune, as in Section IV.
	p.Compressed, compHit, err = stage(&opts, "compress", "compressed", core.LoadFile, func() (*core.Model, error) {
		smallOpts := opts.TrainOpts
		smallOpts.Arch = core.PaperCompressed()
		sp := opts.phaseSpan("compress:train-small")
		small, _, err := core.Train(p.Dataset, smallOpts)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = opts.phaseSpan("compress:prune")
		m, _, err := compress.PruneModel(small, p.Dataset, opts.PruneOpts)
		sp.End()
		return m, err
	})
	if err != nil {
		return nil, err
	}

	p.Report = core.Evaluate(p.Model, p.Dataset)
	p.CompressedReport = core.Evaluate(p.Compressed, p.Dataset)
	p.CompressedReport.FLOPs = p.Compressed.EffectiveFLOPs()
	if modelHit {
		logf("experiments: loaded cached model (acc=%.2f%%)", p.Report.Accuracy*100)
	} else {
		logf("experiments: trained model acc=%.2f%% mape=%.2f%% flops=%d",
			p.Report.Accuracy*100, p.Report.MAPE, p.Report.FLOPs)
	}
	if compHit {
		logf("experiments: loaded cached compressed model (acc=%.2f%%)", p.CompressedReport.Accuracy*100)
	} else {
		logf("experiments: compressed model acc=%.2f%% mape=%.2f%% effective flops=%d",
			p.CompressedReport.Accuracy*100, p.CompressedReport.MAPE, p.CompressedReport.FLOPs)
	}
	return p, nil
}

// stage runs one pipeline phase under its span. It loads the phase's
// artifact from <CacheDir>/<artifact>.json when the file is there
// (pipeline_cache_hits_total, cached=true on the span) and otherwise
// builds it and saves it there (pipeline_cache_misses_total). No cache
// directory or no file is a miss; a file that exists and does not load
// is an error, so a bad artifact stops the build instead of being
// rebuilt over. A phase that succeeds records its pipeline_phase_ms.
func stage[T interface{ SaveFile(string) error }](opts *PipelineOptions, phase, artifact string,
	load func(string) (T, error), build func() (T, error), attrs ...string) (v T, hit bool, err error) {
	start := time.Now()
	sp := opts.phaseSpan(phase, attrs...)
	defer sp.End()
	path := ""
	if opts.CacheDir != "" {
		path = filepath.Join(opts.CacheDir, artifact+".json")
		v, err = load(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return v, false, fmt.Errorf("experiments: cache file does not load (delete it to rebuild it): %w", err)
		}
		hit = err == nil
	}
	counter := "pipeline_cache_misses_total"
	if hit {
		counter = "pipeline_cache_hits_total"
		sp.SetAttr("cached", "true")
	}
	if opts.Telemetry != nil {
		opts.Telemetry.Counter(counter, "artifact", artifact).Add(1)
	}
	if !hit {
		if v, err = build(); err == nil && path != "" {
			err = v.SaveFile(path)
		}
		if err != nil {
			return v, false, err
		}
	}
	if opts.Telemetry != nil {
		opts.Telemetry.Histogram("pipeline_phase_ms", "phase", phase).Observe(time.Since(start).Milliseconds())
	}
	return v, hit, nil
}

// generateDataset runs datagen over the training kernels.
func generateDataset(opts *PipelineOptions, trainKernels []kernels.Spec) (*datagen.Dataset, error) {
	dgCfg := datagen.DefaultConfig(opts.Sim)
	if opts.BreakpointPs > 0 {
		dgCfg.BreakpointPs = opts.BreakpointPs
	}
	dgCfg.MaxBreakpoints = opts.MaxBreakpoints
	if opts.ClusterStride > 0 {
		dgCfg.ClusterStride = opts.ClusterStride
	}
	built := make([]isa.Kernel, len(trainKernels))
	for i, spec := range trainKernels {
		built[i] = spec.Build(opts.Scale)
	}
	ds, err := datagen.RunSuite(datagen.SuiteOptions{
		Config:    dgCfg,
		Kernels:   built,
		Logger:    opts.Logger,
		Telemetry: opts.Telemetry,
		Tracer:    opts.Tracer,
		Workers:   opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	if opts.Telemetry != nil {
		opts.Telemetry.Counter("pipeline_samples_total").Add(int64(len(ds.Samples)))
	}
	opts.Logger.Logf("experiments: generated dataset with %d samples", len(ds.Samples))
	return ds, nil
}
