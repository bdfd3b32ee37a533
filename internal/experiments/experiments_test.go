package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/features"
	"ssmdvfs/internal/kernels"
	"ssmdvfs/internal/telemetry"
)

// The pipeline is expensive (tens of seconds), so tests share one build.
var (
	pipeOnce sync.Once
	pipe     *Pipeline
	pipeErr  error
)

func testPipelineOpts() PipelineOptions {
	opts := QuickPipelineOptions()
	// Trim further for tests: fewer kernels, fewer feature levels.
	opts.TrainKernels = kernels.Training()[:6]
	return opts
}

func sharedPipeline(t *testing.T) *Pipeline {
	t.Helper()
	if testing.Short() {
		t.Skip("pipeline build is slow")
	}
	pipeOnce.Do(func() {
		pipe, pipeErr = RunPipeline(testPipelineOpts())
	})
	if pipeErr != nil {
		t.Fatal(pipeErr)
	}
	return pipe
}

func TestPipelineArtifacts(t *testing.T) {
	p := sharedPipeline(t)
	if len(p.Dataset.Samples) == 0 {
		t.Fatal("empty dataset")
	}
	if p.Model == nil || p.Compressed == nil {
		t.Fatal("missing models")
	}
	// The decision model must do considerably better than the 1/6 chance
	// floor, and the compressed model must be dramatically cheaper.
	if p.Report.Accuracy < 0.40 {
		t.Fatalf("decision accuracy %.2f below sanity floor", p.Report.Accuracy)
	}
	if p.Compressed.EffectiveFLOPs() >= p.Model.FLOPs()/4 {
		t.Fatalf("compression too weak: %d vs %d FLOPs",
			p.Compressed.EffectiveFLOPs(), p.Model.FLOPs())
	}
}

func TestPipelineCaching(t *testing.T) {
	p := sharedPipeline(t)
	dir := t.TempDir()
	if err := p.Dataset.SaveFile(filepath.Join(dir, "dataset.json")); err != nil {
		t.Fatal(err)
	}
	if err := p.Model.SaveFile(filepath.Join(dir, "model.json")); err != nil {
		t.Fatal(err)
	}
	if err := p.Compressed.SaveFile(filepath.Join(dir, "compressed.json")); err != nil {
		t.Fatal(err)
	}
	opts := testPipelineOpts()
	opts.CacheDir = dir
	var logs []string
	opts.Logger = telemetry.NewLoggerFunc(func(format string, args ...any) { logs = append(logs, format) }, nil)
	p2, err := RunPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Dataset.Samples) != len(p.Dataset.Samples) {
		t.Fatal("cached dataset differs")
	}
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "cached") {
		t.Fatalf("cache not used; logs: %s", joined)
	}
	// A warm cache reports what the cold build did (Table II's columns).
	if p2.Report != p.Report || p2.CompressedReport != p.CompressedReport {
		t.Fatalf("warm reports %+v / %+v, cold %+v / %+v", p2.Report, p2.CompressedReport, p.Report, p.CompressedReport)
	}
}

func TestFig4EndToEnd(t *testing.T) {
	p := sharedPipeline(t)
	evalSpecs := kernels.Evaluation()[:4]
	res, err := RunFig4(Fig4Options{
		Sim:        testPipelineOpts().Sim,
		Kernels:    evalSpecs,
		Scale:      testPipelineOpts().Scale,
		Presets:    []float64{0.10, 0.20},
		Model:      p.Model,
		Compressed: p.Compressed,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(evalSpecs) * 2 * len(AllMechanisms())
	if len(res.Rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(res.Rows), wantRows)
	}

	// Baseline rows are exactly 1.0 by construction.
	for _, r := range res.Rows {
		if r.Mechanism == MechBaseline && (r.NormEDP != 1.0 || r.NormLatency != 1.0) {
			t.Fatalf("baseline row not normalized: %+v", r)
		}
		if r.NormEDP <= 0 || r.NormLatency <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
	}

	// Shape checks mirroring the paper's findings.
	get := func(mech Mechanism, preset float64) Fig4Summary {
		for _, s := range res.Summaries {
			if s.Mechanism == mech && s.Preset == preset {
				return s
			}
		}
		t.Fatalf("summary %s@%.2f missing", mech, preset)
		return Fig4Summary{}
	}
	for _, preset := range []float64{0.10, 0.20} {
		ssm := get(MechSSMDVFS, preset)
		if ssm.GMeanEDP >= 1.0 {
			t.Errorf("SSMDVFS EDP at %.0f%% = %.3f, want < 1 (beats baseline)", preset*100, ssm.GMeanEDP)
		}
		if ssm.GMeanEDP >= get(MechFLEMMA, preset).GMeanEDP {
			t.Errorf("SSMDVFS (%.3f) does not beat F-LEMMA (%.3f) at %.0f%%",
				ssm.GMeanEDP, get(MechFLEMMA, preset).GMeanEDP, preset*100)
		}
		// SSMDVFS keeps losses under control (small tolerance: the paper
		// itself shows occasional threshold crossings pulled back by the
		// Calibrator).
		if ssm.MaxLoss > preset+0.10 {
			t.Errorf("SSMDVFS max loss %.2f far exceeds preset %.2f", ssm.MaxLoss, preset)
		}
	}

	// Rendering shouldn't error and must mention every mechanism.
	var buf bytes.Buffer
	if err := res.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	for _, m := range AllMechanisms() {
		if !strings.Contains(buf.String(), string(m)) {
			t.Fatalf("table missing mechanism %s", m)
		}
	}

	if _, err := res.ComputeHeadline(MechSSMDVFSComp); err != nil {
		t.Fatal(err)
	}
}

func TestFig4Validation(t *testing.T) {
	if _, err := RunFig4(Fig4Options{}); err == nil {
		t.Fatal("missing model accepted")
	}
	p := sharedPipeline(t)
	if _, err := RunFig4(Fig4Options{Model: p.Model}); err == nil {
		t.Fatal("missing kernels accepted")
	}
}

func TestTableIOnPipeline(t *testing.T) {
	p := sharedPipeline(t)
	cfg := features.DefaultConfig()
	cfg.Epochs = 15
	res, err := RunTableI(p.Dataset, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SelectedNames) != 5 {
		t.Fatalf("selected %d counters, want 5 (PPC + 4 indirect)", len(res.SelectedNames))
	}
	var buf bytes.Buffer
	if err := res.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ppc_total_w") {
		t.Fatal("table missing the direct power counter")
	}
}

func TestTableIIOnPipeline(t *testing.T) {
	p := sharedPipeline(t)
	res := RunTableII(p)
	if res.CompressionPct < 50 {
		t.Fatalf("FLOPs compression %.1f%%, want > 50%% (paper: 94.7%%)", res.CompressionPct)
	}
	var buf bytes.Buffer
	if err := res.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FLOPs") {
		t.Fatal("table missing FLOPs row")
	}
}

func TestFig3Reduced(t *testing.T) {
	p := sharedPipeline(t)
	opts := DefaultFig3Options()
	opts.TrainOpts = testPipelineOpts().TrainOpts
	opts.TrainOpts.Epochs = 12
	opts.Archs = opts.Archs[:3]
	opts.X1s = []float64{0.5}
	opts.X2s = []float64{0.9}
	opts.PruneOpts.FineTuneEpochs = 5
	res, err := RunFig3(p.Dataset, p.Model, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layerwise) != 3 || len(res.Pruning) != 1 {
		t.Fatalf("series sizes %d/%d", len(res.Layerwise), len(res.Pruning))
	}
	for _, pt := range append(res.Layerwise, res.Pruning...) {
		if pt.FLOPs <= 0 || pt.Accuracy < 0 || pt.Accuracy > 1 {
			t.Fatalf("degenerate point %+v", pt)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestASICOnPipeline(t *testing.T) {
	p := sharedPipeline(t)
	rep, err := RunASIC(p.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	// The module must comfortably fit a 10 µs epoch and stay tiny, as in
	// Section V-D.
	if rep.EpochFraction > 0.10 {
		t.Fatalf("inference takes %.1f%% of an epoch", rep.EpochFraction*100)
	}
	if rep.AreaMM2 > 0.1 {
		t.Fatalf("area %.4f mm² implausibly large", rep.AreaMM2)
	}
	// An INT16 engine running the 16-bit fake-quantized model is smaller,
	// and 16 bits cost the model next to no accuracy.
	rep16, err := RunASICInt(p.Compressed, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rep16.AreaMM2 >= rep.AreaMM2 {
		t.Fatalf("INT16 engine %.4f mm² not smaller than FP32's %.4f", rep16.AreaMM2, rep.AreaMM2)
	}
	pts, err := QuantSweep(p.Compressed, p.Dataset, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	if fp := core.Evaluate(p.Compressed, p.Dataset); math.Abs(pts[0].Accuracy-fp.Accuracy) > 0.01 {
		t.Fatalf("16-bit accuracy %.4f, float64 %.4f", pts[0].Accuracy, fp.Accuracy)
	}
	if err := WriteASIC(os.Stderr, rep); err != nil {
		t.Fatal(err)
	}
}
