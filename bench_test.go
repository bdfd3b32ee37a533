// Package ssmdvfs_bench hosts the benchmark harness that regenerates
// every table and figure in the paper's evaluation section:
//
//	BenchmarkTableI_FeatureSelection  — Table I (RFE over 47 counters)
//	BenchmarkTableII_ModelCompression — Table II (before/after compression)
//	BenchmarkFig3_CompressionSweep    — Fig. 3 (FLOPs vs accuracy/MAPE)
//	BenchmarkFig4_FullSystem          — Fig. 4 (normalized EDP & latency)
//	BenchmarkHeadline_EDP             — the paper's headline EDP numbers
//	BenchmarkASIC_Inference           — Section V-D hardware estimate
//
// plus the ablation benches DESIGN.md calls out (Calibrator gain, DVFS
// epoch length, feature set, per-cluster vs chip-wide domains) and
// microbenchmarks of the simulator and the model inference path.
//
// The benches run on the reduced (4-cluster, 40%-length) configuration so
// a full -bench=. pass completes in minutes; `cmd/ssmdvfs -cache ... all`
// runs the full-scale Titan X reproduction. Custom metrics carry the
// scientific results: norm_edp (lower is better), norm_latency, etc.
package ssmdvfs_bench

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"ssmdvfs/internal/asic"
	"ssmdvfs/internal/compress"
	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/experiments"
	"ssmdvfs/internal/features"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/kernels"
)

var (
	benchOnce sync.Once
	benchPipe *experiments.Pipeline
	benchErr  error
)

func benchOpts() experiments.PipelineOptions {
	opts := experiments.QuickPipelineOptions()
	opts.CacheDir = "testdata/bench-cache"
	return opts
}

// pipeline builds (or loads) the shared models once per test binary.
func pipeline(b *testing.B) *experiments.Pipeline {
	b.Helper()
	benchOnce.Do(func() {
		opts := benchOpts()
		if err := os.MkdirAll(opts.CacheDir, 0o755); err != nil {
			benchErr = err
			return
		}
		benchPipe, benchErr = experiments.RunPipeline(opts)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchPipe
}

// BenchmarkTableI_FeatureSelection regenerates Table I: RFE over the 47
// performance counters, keeping PPC direct and selecting 4 indirect
// features. Reported metrics: accuracy with the full and selected sets.
func BenchmarkTableI_FeatureSelection(b *testing.B) {
	p := pipeline(b)
	cfg := features.DefaultConfig()
	cfg.Epochs = 15
	var res *features.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = features.Run(p.Dataset, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FullAccuracy*100, "full_acc_%")
	b.ReportMetric(res.SelectedAccuracy*100, "selected_acc_%")
	names := ""
	for _, i := range res.Selected {
		names += counters.Def(i).Name + " "
	}
	b.Logf("Table I selected counters: %s", names)
}

// BenchmarkTableII_ModelCompression regenerates Table II: train the
// compressed architecture and prune it with the paper's (0.6, 0.9).
func BenchmarkTableII_ModelCompression(b *testing.B) {
	p := pipeline(b)
	opts := benchOpts()
	var rep core.Report
	var pruned *core.Model
	for i := 0; i < b.N; i++ {
		small := opts.TrainOpts
		small.Arch = core.PaperCompressed()
		m, _, err := core.Train(p.Dataset, small)
		if err != nil {
			b.Fatal(err)
		}
		pruned, rep, err = compress.PruneModel(m, p.Dataset, opts.PruneOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.Report.FLOPs), "flops_before")
	b.ReportMetric(float64(pruned.EffectiveFLOPs()), "flops_after")
	b.ReportMetric(p.Report.Accuracy*100, "acc_before_%")
	b.ReportMetric(rep.Accuracy*100, "acc_after_%")
	b.ReportMetric(p.Report.MAPE, "mape_before_%")
	b.ReportMetric(rep.MAPE, "mape_after_%")
}

// BenchmarkFig3_CompressionSweep regenerates Fig. 3's two series on a
// reduced grid: layer-wise architectures and (x1, x2) pruning points.
func BenchmarkFig3_CompressionSweep(b *testing.B) {
	p := pipeline(b)
	opts := experiments.DefaultFig3Options()
	opts.TrainOpts = benchOpts().TrainOpts
	opts.TrainOpts.Epochs = 15
	opts.Archs = opts.Archs[:6]
	opts.X1s = []float64{0.4, 0.6, 0.8}
	opts.X2s = []float64{0.9}
	opts.PruneOpts.FineTuneEpochs = 8
	var res *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig3(p.Dataset, p.Model, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range res.Layerwise {
		b.Logf("layerwise %-10s flops=%5d acc=%5.1f%% mape=%5.1f%%", pt.Label, pt.FLOPs, pt.Accuracy*100, pt.MAPE)
	}
	for _, pt := range res.Pruning {
		b.Logf("pruning   %-16s flops=%5d acc=%5.1f%% mape=%5.1f%%", pt.Label, pt.FLOPs, pt.Accuracy*100, pt.MAPE)
	}
}

// closedLoop runs the Fig. 4 harness, the one closed-loop path every
// figure, extension and ablation bench below shares: an arm is a Sim tweak
// plus kernel, preset and mechanism lists (none = the paper's six), and
// its numbers are the grid's own — NormEDP and PerfLoss against the same
// configuration's default-OP run.
func closedLoop(b *testing.B, cfg gpusim.Config, ks []kernels.Spec, presets []float64, mechs ...experiments.Mechanism) *experiments.Fig4Result {
	b.Helper()
	p := pipeline(b)
	res, err := experiments.RunFig4(experiments.Fig4Options{
		Sim:        cfg,
		Kernels:    ks,
		Scale:      benchOpts().Scale,
		Presets:    presets,
		Model:      p.Model,
		Compressed: p.Compressed,
		Mechanisms: mechs,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func kernelsNamed(b *testing.B, names ...string) []kernels.Spec {
	b.Helper()
	specs := make([]kernels.Spec, len(names))
	for i, name := range names {
		var err error
		if specs[i], err = kernels.ByName(name); err != nil {
			b.Fatal(err)
		}
	}
	return specs
}

// fig4Kernels is the reduced Fig. 4 evaluation mix: >50% unseen.
func fig4Kernels() []kernels.Spec {
	mix := kernels.Evaluation()[:4]
	return append(mix, kernels.Training()[:2]...)
}

// BenchmarkFig4_FullSystem regenerates Fig. 4: per-mechanism sub-benches
// report geo-mean normalized EDP and mean normalized latency at the 10%
// and 20% presets.
func BenchmarkFig4_FullSystem(b *testing.B) {
	for _, mech := range experiments.AllMechanisms() {
		if mech == experiments.MechBaseline {
			continue
		}
		b.Run(string(mech), func(b *testing.B) {
			var res *experiments.Fig4Result
			for i := 0; i < b.N; i++ {
				res = closedLoop(b, benchOpts().Sim, fig4Kernels(), []float64{0.10, 0.20}, experiments.MechBaseline, mech)
			}
			for _, s := range res.Summaries {
				if s.Mechanism != mech {
					continue
				}
				suffix := fmt.Sprintf("@%.0f%%", s.Preset*100)
				b.ReportMetric(s.GMeanEDP, "norm_edp"+suffix)
				b.ReportMetric(s.MeanLatency, "norm_lat"+suffix)
			}
		})
	}
}

// BenchmarkHeadline_EDP reproduces the headline comparison: compressed
// SSMDVFS EDP improvement vs baseline, PCSTALL and F-LEMMA (paper:
// 11.09%, 13.17%, 36.80%).
func BenchmarkHeadline_EDP(b *testing.B) {
	var h experiments.Headline
	for i := 0; i < b.N; i++ {
		// No mechanism list: the paper's six.
		res := closedLoop(b, benchOpts().Sim, fig4Kernels(), []float64{0.10, 0.20})
		var err error
		if h, err = res.ComputeHeadline(experiments.MechSSMDVFSComp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.VsBaselinePct, "vs_baseline_%")
	b.ReportMetric(h.VsPCSTALLPct, "vs_pcstall_%")
	b.ReportMetric(h.VsFLEMMAPct, "vs_flemma_%")
}

// BenchmarkASIC_Inference regenerates the Section V-D estimate for the
// compressed module and times the software inference path for reference.
func BenchmarkASIC_Inference(b *testing.B) {
	p := pipeline(b)
	rep, err := asic.Estimate(p.Compressed, asic.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rep.CyclesPerInference), "cycles/inf")
	b.ReportMetric(rep.AreaMM2*1000, "area_e-3mm2")
	b.ReportMetric(rep.PowerW*1000, "power_mW")
	b.ReportMetric(rep.EpochFraction*100, "epoch_%")

	feats := make([]float64, counters.Num)
	feats[counters.IdxIPC] = 1.2
	feats[counters.IdxPPC] = 5
	inf := core.NewInference(p.Compressed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		level := inf.DecideLevel(feats, 0.10)
		_ = inf.PredictInstructions(feats, 0.10, level)
	}
}

// --- ablations -------------------------------------------------------------

// runWithController drives one simulation by hand. Only the Domain
// ablation needs it: its chipWide wrapper is not a mechanism the grid can
// name. Every other closed-loop bench goes through closedLoop.
func runWithController(b *testing.B, cfg gpusim.Config, k gpusim.Kernel, ctrl gpusim.Controller) gpusim.Result {
	b.Helper()
	sim, err := gpusim.New(cfg, k)
	if err != nil {
		b.Fatal(err)
	}
	if ctrl != nil {
		sim.SetController(ctrl)
	}
	res := sim.Run(gpusim.DefaultMaxRunPs)
	if !res.Completed {
		b.Fatalf("kernel %s did not complete", k.Name)
	}
	return res
}

// BenchmarkAblation_Calibrator measures the self-calibration gain on the
// phase-alternating kernels, where the Decision-maker is most likely to
// overshoot the preset.
func BenchmarkAblation_Calibrator(b *testing.B) {
	specs := kernelsNamed(b, "rodinia.srad", "rodinia.kmeans", "rodinia.backprop")
	var lossCal, lossNoCal, edpCal, edpNoCal float64
	for i := 0; i < b.N; i++ {
		lossCal, lossNoCal, edpCal, edpNoCal = 0, 0, 0, 0
		res := closedLoop(b, benchOpts().Sim, specs, []float64{0.10}, experiments.MechSSMDVFS, experiments.MechSSMDVFSNoCal)
		for _, r := range res.Rows {
			if r.Mechanism == experiments.MechSSMDVFS {
				lossCal += r.PerfLoss
				edpCal += r.NormEDP
			} else {
				lossNoCal += r.PerfLoss
				edpNoCal += r.NormEDP
			}
		}
	}
	n := float64(len(specs))
	b.ReportMetric(lossCal/n*100, "loss_cal_%")
	b.ReportMetric(lossNoCal/n*100, "loss_nocal_%")
	b.ReportMetric(edpCal/n, "edp_cal")
	b.ReportMetric(edpNoCal/n, "edp_nocal")
}

// BenchmarkAblation_EpochLength motivates microsecond-scale DVFS: the
// same analytical mechanism (PCSTALL, which is model-free and thus works
// at any epoch) at 10/50/100 µs decision periods.
func BenchmarkAblation_EpochLength(b *testing.B) {
	for _, epochUs := range []int64{10, 50, 100} {
		b.Run(fmt.Sprintf("epoch=%dus", epochUs), func(b *testing.B) {
			cfg := benchOpts().Sim
			cfg.EpochPs = epochUs * 1_000_000
			srad := kernelsNamed(b, "rodinia.srad")
			var row experiments.Fig4Row
			for i := 0; i < b.N; i++ {
				row = closedLoop(b, cfg, srad, []float64{0.10}, experiments.MechPCSTALL).Rows[0]
			}
			b.ReportMetric(row.NormEDP, "norm_edp")
			b.ReportMetric(row.PerfLoss*100, "loss_%")
		})
	}
}

// BenchmarkAblation_Features compares the Table I five-counter feature
// set against all 47 counters and against the power-only direct set.
func BenchmarkAblation_Features(b *testing.B) {
	p := pipeline(b)
	all := make([]int, counters.Num)
	for i := range all {
		all[i] = i
	}
	sets := map[string][]int{
		"five":      counters.SelectedFive(),
		"all47":     all,
		"poweronly": counters.PowerOnly(),
	}
	for name, idx := range sets {
		b.Run(name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				opts := benchOpts().TrainOpts
				opts.FeatureIdx = idx
				opts.Epochs = 25
				_, rep, err := core.Train(p.Dataset, opts)
				if err != nil {
					b.Fatal(err)
				}
				acc = rep.Accuracy
			}
			b.ReportMetric(acc*100, "acc_%")
		})
	}
}

// chipWide wraps a controller so cluster 0's decision is applied to every
// cluster (the paper's DVFS is per-cluster; this is the ablation arm).
type chipWide struct {
	inner gpusim.Controller
	level int
}

func (c *chipWide) Name() string { return c.inner.Name() + "-chipwide" }
func (c *chipWide) Decide(s gpusim.EpochStats) int {
	if s.Cluster == 0 {
		c.level = c.inner.Decide(s)
	}
	return c.level
}

// BenchmarkAblation_Domain compares per-cluster DVFS against chip-wide
// DVFS driven by cluster 0's counters.
func BenchmarkAblation_Domain(b *testing.B) {
	p := pipeline(b)
	opts := benchOpts()
	spec, err := kernels.ByName("rodinia.cfd")
	if err != nil {
		b.Fatal(err)
	}
	k := spec.Build(opts.Scale)
	for _, wide := range []bool{false, true} {
		name := "per-cluster"
		if wide {
			name = "chip-wide"
		}
		b.Run(name, func(b *testing.B) {
			var edp float64
			for i := 0; i < b.N; i++ {
				base := runWithController(b, opts.Sim, k, nil)
				inner, err := core.NewController(p.Model, 0.10, opts.Sim.Clusters, true)
				if err != nil {
					b.Fatal(err)
				}
				var ctrl gpusim.Controller = inner
				if wide {
					ctrl = &chipWide{inner: inner, level: opts.Sim.OPs.Default()}
				}
				res := runWithController(b, opts.Sim, k, ctrl)
				edp = res.EDP() / base.EDP()
			}
			b.ReportMetric(edp, "norm_edp")
		})
	}
}

// --- microbenchmarks --------------------------------------------------------

// BenchmarkSimulatorThroughput measures raw simulation speed: host time per
// simulated 10 µs epoch (ns/epoch) and its ratio to the simulated time
// (slowdown_x). The three kernels bracket what the event-skipping scheduler
// sees: a compute-bound kernel issues nearly every cycle (nothing to skip),
// a memory-bound one idles most cycles, a phase-mixed one alternates.
func BenchmarkSimulatorThroughput(b *testing.B) {
	opts := benchOpts()
	for _, name := range []string{"polybench.gemm", "polybench.atax", "rodinia.backprop"} {
		spec, err := kernels.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(spec.Behaviour)+"/"+name, func(b *testing.B) {
			k := spec.Build(1.0)
			epochPs := opts.Sim.EpochPs
			sim, err := gpusim.New(opts.Sim, k)
			if err != nil {
				b.Fatal(err)
			}
			target := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target += epochPs
				sim.RunUntil(target)
				if sim.Done() {
					b.StopTimer()
					sim, err = gpusim.New(opts.Sim, k)
					if err != nil {
						b.Fatal(err)
					}
					target = 0
					b.StartTimer()
				}
			}
			nsPerEpoch := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(nsPerEpoch, "ns/epoch")
			b.ReportMetric(nsPerEpoch/(float64(epochPs)/1e3), "slowdown_x")
		})
	}
}

// BenchmarkModelInference times one combined Decision+Calibrator software
// inference for the uncompressed and compressed models.
func BenchmarkModelInference(b *testing.B) {
	p := pipeline(b)
	feats := make([]float64, counters.Num)
	feats[counters.IdxIPC] = 1.0
	feats[counters.IdxPPC] = 5
	feats[counters.IdxMH] = 20000
	for name, m := range map[string]*core.Model{
		"initial":    p.Model,
		"compressed": p.Compressed,
	} {
		b.Run(name, func(b *testing.B) {
			inf := core.NewInference(m)
			for i := 0; i < b.N; i++ {
				level := inf.DecideLevel(feats, 0.10)
				_ = inf.PredictInstructions(feats, 0.10, level)
			}
			b.ReportMetric(float64(m.EffectiveFLOPs()), "flops")
		})
	}
}

// BenchmarkSimulatorClone times the snapshot operation data generation
// leans on.
func BenchmarkSimulatorClone(b *testing.B) {
	opts := benchOpts()
	k := kernels.Training()[0].Build(0.5)
	sim, err := gpusim.New(opts.Sim, k)
	if err != nil {
		b.Fatal(err)
	}
	sim.RunUntil(20_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.Clone()
	}
}

// BenchmarkExtension_PresetSweep runs the preset-sensitivity extension:
// EDP and latency as the loss budget grows from 2% to 30%.
func BenchmarkExtension_PresetSweep(b *testing.B) {
	var res *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res = closedLoop(b, benchOpts().Sim, kernels.Evaluation()[:3],
			[]float64{0.02, 0.10, 0.30}, experiments.MechSSMDVFSComp)
	}
	for _, pt := range res.Summaries {
		b.ReportMetric(pt.GMeanEDP, fmt.Sprintf("edp@%.0f%%", pt.Preset*100))
	}
}

// BenchmarkExtension_OracleHeadroom compares SSMDVFS against the
// clairvoyant static-best and greedy oracle policies.
func BenchmarkExtension_OracleHeadroom(b *testing.B) {
	const nk = 2
	var res *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res = closedLoop(b, benchOpts().Sim, kernels.Evaluation()[:nk], []float64{0.10},
			experiments.MechSSMDVFS, experiments.MechStaticBest, experiments.MechOracleGreedy)
	}
	// Arithmetic mean over kernels, as this bench has always reported
	// (the grid's own summary is a geometric mean).
	edp := map[experiments.Mechanism]float64{}
	for _, r := range res.Rows {
		edp[r.Mechanism] += r.NormEDP / nk
	}
	b.ReportMetric(edp[experiments.MechSSMDVFS], "ssmdvfs_edp")
	b.ReportMetric(edp[experiments.MechStaticBest], "static_best_edp")
	b.ReportMetric(edp[experiments.MechOracleGreedy], "greedy_oracle_edp")
}

// BenchmarkExtension_Quantization sweeps post-training weight
// quantization of the compressed module and reports the accuracy curve
// plus the INT16 hardware estimate.
func BenchmarkExtension_Quantization(b *testing.B) {
	p := pipeline(b)
	var points []experiments.QuantPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.QuantSweep(p.Compressed, p.Dataset, []int{16, 8, 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range points {
		b.ReportMetric(pt.Accuracy*100, fmt.Sprintf("acc%%@%db", pt.Bits))
	}
	rep, err := experiments.RunASICInt(p.Compressed, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.AreaMM2*1000, "int16_area_e-3mm2")
	b.ReportMetric(rep.PowerW*1000, "int16_power_mW")
}

// BenchmarkAblation_Scheduler checks the DVFS result is robust to the
// warp-scheduling substrate: SSMDVFS EDP under loose round-robin vs
// greedy-then-oldest scheduling.
func BenchmarkAblation_Scheduler(b *testing.B) {
	for _, policy := range []gpusim.SchedulerPolicy{gpusim.SchedLRR, gpusim.SchedGTO} {
		b.Run(policy.String(), func(b *testing.B) {
			cfg := benchOpts().Sim
			cfg.Scheduler = policy
			srad := kernelsNamed(b, "rodinia.srad")
			var edp float64
			for i := 0; i < b.N; i++ {
				edp = closedLoop(b, cfg, srad, []float64{0.10}, experiments.MechSSMDVFS).Rows[0].NormEDP
			}
			b.ReportMetric(edp, "norm_edp")
		})
	}
}
