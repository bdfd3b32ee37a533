package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"ssmdvfs/internal/compress"
	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/datagen"
	"ssmdvfs/internal/experiments"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/isa"
	"ssmdvfs/internal/kernels"
)

// repeatSetup sets a workload up several times, tearing down all but the
// last, and returns the last one with the median set-up time, so that one
// slow start does not pass for the set-up cost: three times, and up to
// nine while they all fit in a second (the smoke pass: once).
func repeatSetup[T any](cfg config, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var took []float64
	begin := time.Now()
	for i := 0; i == 0 || !cfg.smoke && (i < 3 || i < 9 && time.Since(begin) < time.Second); i++ {
		if i > 0 {
			// Collect the rig just torn down, or the repeats would add up
			// in the peak RSS as one set-up never does.
			teardown(last)
			var zero T
			last = zero
			runtime.GC()
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		took = append(took, time.Since(start).Seconds())
		last = v
	}
	return last, median(took), nil
}

// passResult is one timed pass of a pass-based workload.
type passResult struct {
	decisions float64
	wall      time.Duration
}

// runPasses repeats pass until seconds have gone by (at least once) and
// sets the end-to-end metrics from the passes. One pass is one operation.
func runPasses(cfg config, rep *report, seconds float64, pass func(i int) (float64, error)) ([]passResult, error) {
	var out []passResult
	var perSecond, opUs []float64
	var decisions float64
	cpu0, start := cpuTime(), time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		t := time.Now()
		n, err := pass(i)
		if err != nil {
			return out, err
		}
		d := time.Since(t)
		out = append(out, passResult{n, d})
		perSecond = append(perSecond, n/d.Seconds())
		opUs = append(opUs, float64(d)/1e3)
		decisions += n
	}
	cpu := cpuTime() - cpu0
	rep.windows += len(out)
	if !cfg.trace {
		rep.setWindows("decisions_per_s", perSecond)
		rep.setWindows("op_p50_us", opUs)
		rep.set("cpu_us_per_decision", float64(cpu)/1e3/decisions)
		rep.set("peak_rss_mb", peakRSSMB())
	}
	return out, nil
}

// tracedPasses is the traced run of a pass-based workload: a third of the
// time untraced, a third with the spans pass(rec) records, and the two
// labels every workload reports. It returns the untraced passes' wall
// seconds and the recorder.
func tracedPasses(cfg config, rep *report, pass func(*spanRecorder) func(int) (float64, error)) ([]float64, *spanRecorder, error) {
	walls := func(p []passResult) []float64 {
		v := make([]float64, len(p))
		for i := range p {
			v[i] = p[i].wall.Seconds()
		}
		return v
	}
	untraced, err := runPasses(cfg, rep, cfg.seconds/3, pass(nil))
	if err != nil {
		return nil, nil, err
	}
	rec := newSpanRecorder()
	traced, err := runPasses(cfg, rep, cfg.seconds/3, pass(rec))
	if err != nil {
		return nil, nil, err
	}
	base := walls(untraced)
	rep.set("bench.op_p99_us", quartiles(base)[2]*1e6) // too few passes for a percentile: the upper quartile
	rep.set("bench.trace_overhead_pct", 100*(median(walls(traced))/median(base)-1))
	return base, rec, nil
}

// --- sim_closed_loop --------------------------------------------------------

const (
	simScale = 0.4
	// simDigest is the SHA-256 of every statistic RunFig4 returns for the
	// grid below (see digestFig4), with the committed models, on amd64. A
	// change that only makes the simulator faster must leave it as it is;
	// a change to what the simulator models replaces it, in a change of
	// its own to the benchmark.
	simDigest = "310da89c4f3a7cb534f65de87f40cf8e4e04f9a7772fbbca8e079bd7a9e0dd4c"
)

var simMechanisms = []experiments.Mechanism{
	experiments.MechBaseline, experiments.MechPCSTALL, experiments.MechSSMDVFS, experiments.MechSSMDVFSComp,
}

// simRig is the simulation workload set up: both committed models loaded
// and the evaluation kernels in the order the seed gives them.
type simRig struct {
	cfg     gpusim.Config
	model   *core.Model
	comp    *core.Model
	kernels []kernels.Spec
}

func setupSim(cfg config) (*simRig, error) {
	model, err := core.LoadFile(cachePath(cfg.root, "model.json"))
	if err != nil {
		return nil, err
	}
	comp, err := core.LoadFile(cachePath(cfg.root, "compressed.json"))
	if err != nil {
		return nil, err
	}
	rig := &simRig{cfg: gpusim.SmallConfig(), model: model, comp: comp, kernels: kernels.Evaluation()}
	// Warm-up: the first kernel under the baseline and the compressed
	// controller, so the first timed grid does not pay for first-use
	// allocation and page faults. Before the shuffle: the kernels differ
	// tenfold in cost, and set-up time is not meant to depend on the seed.
	warm, scale := rig.kernels[:1], simScale
	if cfg.smoke {
		scale = 0.02
	}
	mechs := []experiments.Mechanism{experiments.MechBaseline, experiments.MechSSMDVFSComp}
	if _, err := rig.grid(scale, warm, mechs, nil); err != nil {
		return nil, err
	}
	// The seed orders the kernels, and with them the order the grid's cells
	// reach the workers; what each cell simulates does not depend on it.
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(rig.kernels), func(i, j int) {
		rig.kernels[i], rig.kernels[j] = rig.kernels[j], rig.kernels[i]
	})
	if cfg.smoke {
		rig.kernels = rig.kernels[:1]
	}
	return rig, nil
}

func (r *simRig) grid(scale float64, ks []kernels.Spec, mechs []experiments.Mechanism, sp *spanRecorder) (*experiments.Fig4Result, error) {
	opts := experiments.Fig4Options{
		Sim: r.cfg, Kernels: ks, Scale: scale, Presets: presets[:],
		Model: r.model, Compressed: r.comp, Mechanisms: mechs, Seed: 1,
	}
	if sp == nil {
		return experiments.RunFig4(opts)
	}
	tracer, done := sp.programTracer()
	opts.Tracer = tracer
	res, err := experiments.RunFig4(opts)
	if err != nil {
		return nil, err
	}
	return res, done()
}

// digestFig4 hashes every simulated statistic of a grid, in an order that
// does not depend on the order the kernels were given in.
func digestFig4(res *experiments.Fig4Result) string {
	rows := append([]experiments.Fig4Row(nil), res.Rows...)
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		if a.Mechanism != b.Mechanism {
			return a.Mechanism < b.Mechanism
		}
		return a.Preset < b.Preset
	})
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%s %s %x %d %x %x %x %x %x %t %d\n", r.Kernel, r.Mechanism, math.Float64bits(r.Preset),
			r.ExecPs, math.Float64bits(r.EnergyPJ), math.Float64bits(r.EDP), math.Float64bits(r.NormEDP),
			math.Float64bits(r.NormLatency), math.Float64bits(r.PerfLoss), r.WithinPreset, r.Transitions)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// simulatedEpochs counts the cluster-epochs a grid simulated: every
// mechanism's run of every kernel at every preset, the baseline's once per
// kernel (RunFig4 runs it once and repeats its row per preset).
func (r *simRig) simulatedEpochs(res *experiments.Fig4Result) float64 {
	var ps float64
	seen := map[string]bool{}
	for _, row := range res.Rows {
		if row.Mechanism == experiments.MechBaseline {
			if seen[row.Kernel] {
				continue
			}
			seen[row.Kernel] = true
		}
		ps += float64(row.ExecPs)
	}
	return ps / float64(r.cfg.EpochPs) * float64(r.cfg.Clusters)
}

func runSim(cfg config, rep *report) error {
	rig, setupS, err := repeatSetup(cfg, func() (*simRig, error) { return setupSim(cfg) }, func(*simRig) {})
	if err != nil {
		return err
	}
	rep.set("setup_s", setupS)
	scale := simScale
	if cfg.smoke {
		scale = 0.02
	}

	var last *experiments.Fig4Result
	pass := func(sp *spanRecorder) func(int) (float64, error) {
		return func(int) (float64, error) {
			res, err := rig.grid(scale, rig.kernels, simMechanisms, sp)
			if err != nil {
				rep.attempted++
				rep.fail(1, "RunFig4: %v", err)
				return 0, err
			}
			rep.attempted += int64(len(res.Rows))
			if d := digestFig4(res); !cfg.smoke && d != simDigest {
				rep.fail(int64(len(res.Rows)), "simulated statistics changed: digest %s, committed %s", d, simDigest)
			}
			last = res
			return rig.simulatedEpochs(res), nil
		}
	}
	if !cfg.trace {
		_, err := runPasses(cfg, rep, cfg.seconds, pass(nil))
		return err
	}

	walls, rec, err := tracedPasses(cfg, rep, pass)
	if err != nil {
		return err
	}
	rep.set("experiments.fig4_grid_s", median(walls))
	match := 0.0
	if digestFig4(last) == simDigest {
		match = 1
	}
	rep.set("gpusim.stats_digest_match", match)
	var edp []float64
	violations := 0
	for _, s := range last.Summaries {
		if s.Mechanism == experiments.MechSSMDVFSComp {
			edp = append(edp, s.GMeanEDP)
			violations += s.ViolationN
		}
	}
	rep.set("experiments.norm_edp", mean(edp))
	rep.set("experiments.preset_violations", float64(violations))
	if err := rig.timeSimLayers(rep, rec); err != nil {
		return err
	}
	return rec.write(cfg.tracePath(wSimClosedLoop))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// timedController wraps the controller of one hand-driven simulation and
// times what the simulator's epoch boundary spends in it, and in
// counters.FromStats next to it.
type timedController struct {
	inner    gpusim.Controller
	decide   time.Duration
	counters time.Duration
	calls    int
}

func (c *timedController) Name() string { return c.inner.Name() }

func (c *timedController) Decide(s gpusim.EpochStats) int {
	t0 := time.Now()
	counters.FromStats(s)
	t1 := time.Now()
	level := c.inner.Decide(s)
	c.decide += time.Since(t1)
	c.counters += t1.Sub(t0)
	c.calls++
	return level
}

// timeSimLayers drives one kernel through the simulator by hand, under the
// compressed SSMDVFS controller, an epoch at a time.
func (r *simRig) timeSimLayers(rep *report, rec *spanRecorder) error {
	spec := kernels.Evaluation()[0]
	inner, err := experiments.NewSSMDVFS(r.comp, presets[0], r.cfg, true)
	if err != nil {
		return err
	}
	ctrl := &timedController{inner: inner}
	sim, err := gpusim.New(r.cfg, spec.Build(simScale))
	if err != nil {
		return err
	}
	sim.SetController(ctrl)
	var perEpoch []float64
	m0 := mallocs()
	start := time.Now()
	for target := r.cfg.EpochPs; !sim.Done(); target += r.cfg.EpochPs {
		t := time.Now()
		sim.RunUntil(target)
		perEpoch = append(perEpoch, float64(time.Since(t))/1e6)
	}
	host := time.Since(start)
	allocs := float64(mallocs() - m0)
	rec.add("gpusim.run_until_loop", "gpusim", 0, 0, rec.newID(), 0, start, start.Add(host),
		map[string]string{"kernel": spec.Name, "epochs": fmt.Sprint(len(perEpoch))})
	rep.set("gpusim.epoch_host_ms", median(perEpoch))
	rep.set("gpusim.slowdown_x", float64(host)/(float64(sim.NowPs())/1e3))
	rep.set("gpusim.sim_instructions_per_host_s", float64(sim.TotalInstructions())/host.Seconds())
	rep.set("gpusim.allocs_per_epoch", allocs/float64(len(perEpoch)))
	if ctrl.calls > 0 {
		rep.set("core.controller.decide_ns", float64(ctrl.decide)/float64(ctrl.calls))
		rep.set("counters.from_stats_ns", float64(ctrl.counters)/float64(ctrl.calls))
	}
	return nil
}

// --- offline_build ----------------------------------------------------------

const (
	// buildSamples is how many labelled samples datagen produces from the
	// build workload's kernels at the quick-pipeline settings.
	buildSamples = 720
	// buildAccuracyFloor is the least hold-out decision accuracy the
	// compressed model built from them may have, whatever the seed.
	buildAccuracyFloor = 0.40
)

// buildKernels are the training kernels the build generates from: one
// branch-heavy, one irregular, one compute-bound, one streaming, a third of
// the training set's samples. Longest first, and not in an order the seed
// picks: with four kernels on two workers the order decides how long the
// straggler runs alone, and the seed is not meant to move wall time. The
// seed seeds training.
var buildKernels = []string{"rodinia.pathfinder", "parboil.spmv", "parboil.cutcp", "polybench.atax"}

// buildRig is the build workload set up: the kernels built, the hold-out
// rows (the committed dataset's samples from kernels the build does not
// generate from) loaded.
type buildRig struct {
	dg      datagen.Config
	opts    experiments.PipelineOptions
	kernels []isa.Kernel
	holdout *datagen.Dataset
}

func setupBuild(cfg config) (*buildRig, error) {
	opts := experiments.QuickPipelineOptions()
	opts.TrainOpts.Seed = cfg.seed
	opts.PruneOpts.Seed = cfg.seed
	dg := datagen.DefaultConfig(opts.Sim)
	dg.BreakpointPs, dg.MaxBreakpoints, dg.ClusterStride = opts.BreakpointPs, opts.MaxBreakpoints, opts.ClusterStride
	names := buildKernels
	if cfg.smoke {
		// One short kernel, one breakpoint an epoch in, one training epoch.
		names, opts.Scale = names[:1], 0.1
		dg.BreakpointPs, dg.MaxBreakpoints = dg.Sim.EpochPs, 1
		opts.TrainOpts.Epochs, opts.PruneOpts.FineTuneEpochs = 1, 1
	}
	rig := &buildRig{dg: dg, opts: opts}
	used := map[string]bool{}
	for _, name := range names {
		spec, err := kernels.ByName(name)
		if err != nil {
			return nil, err
		}
		rig.kernels = append(rig.kernels, spec.Build(opts.Scale))
		used[name] = true
	}

	all, err := datagen.LoadFile(cachePath(cfg.root, "dataset.json"))
	if err != nil {
		return nil, err
	}
	rig.holdout = &datagen.Dataset{CounterNames: all.CounterNames, Levels: all.Levels}
	for _, s := range all.Samples {
		if !used[s.Kernel] {
			rig.holdout.Samples = append(rig.holdout.Samples, s)
		}
	}
	return rig, nil
}

// buildTimes is where one build pass spent its time.
type buildTimes struct {
	datagen, initial, small, prune, evaluate time.Duration
	samples                                  int
	accuracy                                 float64
}

// build is one pass: generate the labelled samples, train the initial and
// the compressed architecture on them, prune, and score the result on the
// hold-out rows. Nothing is cached between passes.
func (r *buildRig) build(cfg config, rep *report, sp *spanRecorder) (buildTimes, error) {
	var t buildTimes
	span := func(name, layer string, start time.Time) {
		if sp != nil {
			sp.add(name, layer, 0, 0, sp.newID(), 0, start, time.Now(), nil)
		}
	}
	suite := datagen.SuiteOptions{Config: r.dg, Kernels: r.kernels}
	var done func() error
	if sp != nil {
		suite.Tracer, done = sp.programTracer()
	}
	start := time.Now()
	ds, err := datagen.RunSuite(suite)
	t.datagen = time.Since(start)
	rep.attempted += int64(len(r.kernels))
	if err != nil {
		rep.fail(int64(len(r.kernels)), "RunSuite: %v", err)
		return t, err
	}
	span("datagen.RunSuite", "datagen", start)
	if done != nil {
		if err := done(); err != nil {
			return t, err
		}
	}
	t.samples = len(ds.Samples)
	if !cfg.smoke && t.samples != buildSamples {
		rep.fail(1, "datagen produced %d samples, want %d", t.samples, buildSamples)
	}

	rep.attempted += 3
	start = time.Now()
	if _, _, err = core.Train(ds, r.opts.TrainOpts); err != nil {
		rep.fail(3, "Train (initial): %v", err)
		return t, err
	}
	t.initial = time.Since(start)
	span("core.Train initial", "core", start)

	small := r.opts.TrainOpts
	small.Arch = core.PaperCompressed()
	start = time.Now()
	m, _, err := core.Train(ds, small)
	if err != nil {
		rep.fail(2, "Train (compressed): %v", err)
		return t, err
	}
	t.small = time.Since(start)
	span("core.Train compressed", "core", start)

	start = time.Now()
	pruned, _, err := compress.PruneModel(m, ds, r.opts.PruneOpts)
	if err != nil {
		rep.fail(1, "PruneModel: %v", err)
		return t, err
	}
	t.prune = time.Since(start)
	span("compress.PruneModel", "compress", start)

	start = time.Now()
	t.accuracy = core.Evaluate(pruned, r.holdout).Accuracy
	t.evaluate = time.Since(start)
	span("core.Evaluate holdout", "core", start)
	if !cfg.smoke && t.accuracy < buildAccuracyFloor {
		rep.fail(1, "hold-out accuracy %.3f is under the floor %.2f", t.accuracy, buildAccuracyFloor)
	}
	return t, nil
}

func runBuild(cfg config, rep *report) error {
	rig, setupS, err := repeatSetup(cfg, func() (*buildRig, error) { return setupBuild(cfg) }, func(*buildRig) {})
	if err != nil {
		return err
	}
	rep.set("setup_s", setupS)

	var times []buildTimes
	pass := func(sp *spanRecorder) func(int) (float64, error) {
		return func(int) (float64, error) {
			t, err := rig.build(cfg, rep, sp)
			times = append(times, t)
			return float64(t.samples), err
		}
	}
	if !cfg.trace {
		_, err := runPasses(cfg, rep, cfg.seconds, pass(nil))
		return err
	}

	walls, rec, err := tracedPasses(cfg, rep, pass)
	if err != nil {
		return err
	}
	base := times[:len(walls)] // the untraced passes
	col := func(get func(buildTimes) float64) float64 {
		v := make([]float64, len(base))
		for i, t := range base {
			v[i] = get(t)
		}
		return median(v)
	}
	rep.set("datagen.samples", col(func(t buildTimes) float64 { return float64(t.samples) }))
	rep.set("datagen.samples_per_s", col(func(t buildTimes) float64 { return float64(t.samples) / t.datagen.Seconds() }))
	rep.set("core.train.initial_s", col(func(t buildTimes) float64 { return t.initial.Seconds() }))
	rep.set("core.train.small_s", col(func(t buildTimes) float64 { return t.small.Seconds() }))
	rep.set("compress.prune_s", col(func(t buildTimes) float64 { return t.prune.Seconds() }))
	rep.set("core.evaluate_ms", col(func(t buildTimes) float64 { return t.evaluate.Seconds() * 1e3 }))
	rep.set("core.model_accuracy", col(func(t buildTimes) float64 { return t.accuracy }))

	// One span per kernel came from RunSuite's own tracer option.
	var perKernel []float64
	for name, d := range rec.durations() {
		if strings.HasPrefix(name, "datagen:") {
			for _, us := range d {
				perKernel = append(perKernel, us/1e6)
			}
		}
	}
	rep.set("datagen.kernel_s_median", median(perKernel))
	rep.set("datagen.kernel_s_max", slices.Max(append(perKernel, 0)))

	if err := rig.timeClone(cfg, rep); err != nil {
		return err
	}
	return rec.write(cfg.tracePath(wOfflineBuild))
}

// timeClone times the snapshot datagen takes at every breakpoint and
// level: a simulator a few epochs into the first kernel.
func (r *buildRig) timeClone(cfg config, rep *report) error {
	sim, err := gpusim.New(r.dg.Sim, r.kernels[0])
	if err != nil {
		return err
	}
	sim.RunUntil(2 * r.dg.Sim.EpochPs)
	var keep *gpusim.Simulator
	ns, _ := timeLoop(cfg.budget(), func(int) { keep = sim.Clone() })
	runtime.KeepAlive(keep)
	rep.set("gpusim.clone_us", ns/1e3)
	return nil
}
