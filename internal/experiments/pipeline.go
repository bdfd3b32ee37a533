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
	// Model is the uncompressed (paper-initial architecture) model with
	// its validation report; Compressed is the deployed pruned model.
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

// observePhase records a finished phase's wall-clock duration.
func (opts *PipelineOptions) observePhase(name string, start time.Time) {
	if opts.Telemetry != nil {
		opts.Telemetry.Histogram("pipeline_phase_ms", "phase", name).Observe(time.Since(start).Milliseconds())
	}
}

// RunPipeline executes (or loads from cache) the full build.
func RunPipeline(opts PipelineOptions) (*Pipeline, error) {
	log := opts.Logger
	logf := log.Logf
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

	// Dataset.
	dsPath := cachePath(opts.CacheDir, "dataset.json")
	dsStart := time.Now()
	dsSpan := opts.phaseSpan("datagen", "kernels", strconv.Itoa(len(trainKernels)))
	ds, hit, err := loadCached(&opts, dsSpan, "dataset", dsPath, datagen.LoadFile)
	if err != nil {
		dsSpan.End()
		return nil, err
	}
	if hit {
		logf("experiments: loaded cached dataset (%d samples)", len(ds.Samples))
		p.Dataset = ds
	} else {
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
		ds, err = datagen.RunSuite(datagen.SuiteOptions{
			Config:    dgCfg,
			Kernels:   built,
			Logger:    log,
			Telemetry: opts.Telemetry,
			Tracer:    opts.Tracer,
			Workers:   opts.Workers,
		})
		if err != nil {
			dsSpan.End()
			return nil, err
		}
		p.Dataset = ds
		if opts.Telemetry != nil {
			opts.Telemetry.Counter("pipeline_samples_total").Add(int64(len(ds.Samples)))
		}
		logf("experiments: generated dataset with %d samples", len(ds.Samples))
		if dsPath != "" {
			if err := ds.SaveFile(dsPath); err != nil {
				dsSpan.End()
				return nil, err
			}
		}
	}
	dsSpan.SetAttr("samples", strconv.Itoa(len(p.Dataset.Samples)))
	dsSpan.End()
	opts.observePhase("datagen", dsStart)

	// Uncompressed model.
	modelPath := cachePath(opts.CacheDir, "model.json")
	trainStart := time.Now()
	trainSpan := opts.phaseSpan("train", "epochs", strconv.Itoa(opts.TrainOpts.Epochs))
	m, hit, err := loadCached(&opts, trainSpan, "model", modelPath, core.LoadFile)
	if err != nil {
		trainSpan.End()
		return nil, err
	}
	if hit {
		p.Model = m
		p.Report = core.Evaluate(m, p.Dataset)
		logf("experiments: loaded cached model (acc=%.2f%%)", p.Report.Accuracy*100)
	} else {
		if p.Model, p.Report, err = core.Train(p.Dataset, opts.TrainOpts); err != nil {
			trainSpan.End()
			return nil, err
		}
		logf("experiments: trained model acc=%.2f%% mape=%.2f%% flops=%d",
			p.Report.Accuracy*100, p.Report.MAPE, p.Report.FLOPs)
		if modelPath != "" {
			if err := p.Model.SaveFile(modelPath); err != nil {
				trainSpan.End()
				return nil, err
			}
		}
	}
	trainSpan.End()
	opts.observePhase("train", trainStart)

	// Compressed model: retrain at the compressed architecture, then
	// prune, as in Section IV.
	compPath := cachePath(opts.CacheDir, "compressed.json")
	compStart := time.Now()
	compSpan := opts.phaseSpan("compress")
	if m, hit, err = loadCached(&opts, compSpan, "compressed", compPath, core.LoadFile); err != nil {
		compSpan.End()
		return nil, err
	}
	if hit {
		p.Compressed = m
		p.CompressedReport = core.Evaluate(m, p.Dataset)
		p.CompressedReport.FLOPs = m.EffectiveFLOPs()
		logf("experiments: loaded cached compressed model (acc=%.2f%%)", p.CompressedReport.Accuracy*100)
	} else {
		smallOpts := opts.TrainOpts
		smallOpts.Arch = core.PaperCompressed()
		smallSpan := opts.phaseSpan("compress:train-small")
		smallModel, _, err := core.Train(p.Dataset, smallOpts)
		smallSpan.End()
		if err != nil {
			compSpan.End()
			return nil, err
		}
		pruneSpan := opts.phaseSpan("compress:prune")
		p.Compressed, p.CompressedReport, err = compress.PruneModel(smallModel, p.Dataset, opts.PruneOpts)
		pruneSpan.End()
		if err != nil {
			compSpan.End()
			return nil, err
		}
		logf("experiments: compressed model acc=%.2f%% mape=%.2f%% effective flops=%d",
			p.CompressedReport.Accuracy*100, p.CompressedReport.MAPE, p.Compressed.EffectiveFLOPs())
		if compPath != "" {
			if err := p.Compressed.SaveFile(compPath); err != nil {
				compSpan.End()
				return nil, err
			}
		}
	}
	compSpan.End()
	opts.observePhase("compress", compStart)
	return p, nil
}

func cachePath(dir, name string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, name)
}

// loadCached reads one cache file with load, counts the hit or miss
// (pipeline_cache_{hits,misses}_total) and marks a hit on sp. No cache
// directory or no file is a miss; a file that exists and does not load
// is an error, so a bad artifact stops the build instead of being
// rebuilt over.
func loadCached[T any](opts *PipelineOptions, sp *telemetry.Span, artifact, path string, load func(string) (T, error)) (v T, hit bool, err error) {
	if path != "" {
		v, err = load(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return v, false, fmt.Errorf("experiments: cache file does not load (delete it to rebuild it): %w", err)
		}
		hit = err == nil
	}
	name := "pipeline_cache_misses_total"
	if hit {
		name = "pipeline_cache_hits_total"
		sp.SetAttr("cached", "true")
	}
	if opts.Telemetry != nil {
		opts.Telemetry.Counter(name, "artifact", artifact).Add(1)
	}
	return v, hit, nil
}
