package experiments

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/kernels"
	"ssmdvfs/internal/runner"
	"ssmdvfs/internal/telemetry"
)

// committedGrid is a quick-scale grid over the committed models, so the
// tests below neither train nor skip under -short.
func committedGrid(t *testing.T) Fig4Options {
	t.Helper()
	load := func(name string) *core.Model {
		m, err := core.LoadFile("../../testdata/bench-cache/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	quick := QuickPipelineOptions()
	return Fig4Options{
		Sim: quick.Sim, Scale: quick.Scale, Kernels: kernels.Evaluation(),
		Model: load("model.json"), Compressed: load("compressed.json"), Seed: 1,
	}
}

// recorder keeps every EpochStats its controller is handed.
type recorder struct {
	gpusim.Controller
	calls []gpusim.EpochStats
}

func (r *recorder) Decide(s gpusim.EpochStats) int {
	r.calls = append(r.calls, s)
	return r.Controller.Decide(s)
}

// TestSharedRunIsTheSoloRun: what a cell gets from a simulator it shares
// is what it gets from one of its own — the same gpusim.Result, float64
// energy included, and the same Decide sequence, field for field — for
// every evaluation kernel, all six mechanisms (F-LEMMA's RNG and the
// Calibrator's per-cluster feedback state among them) and four presets, at
// any worker count. CI runs it under -race, where it also shows a cell's
// controller and simulator change hands between workers cleanly; without
// the race detector it runs a cross-section (see raceEnabled): every
// mechanism at the two outer presets on three short kernels, one of them
// phase-alternating.
func TestSharedRunIsTheSoloRun(t *testing.T) {
	opts := committedGrid(t)
	opts.Presets = []float64{0.02, 0.10, 0.20, 0.30}
	if !raceEnabled {
		opts.Kernels = kernelsByName(t, "rodinia.cfd", "rodinia.srad", "tango.squeezenet")
		opts.Presets = []float64{0.02, 0.30}
	}

	// The reference: gpusim.New + SetController + Run, a fresh controller
	// and simulator per cell.
	type run struct {
		res   gpusim.Result
		calls []gpusim.EpochStats
	}
	ref, err := newGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	perKernel, err := runner.Map(context.Background(), len(ref.runs), runner.Options{},
		func(_ context.Context, s runner.Shard) ([]run, error) {
			var runs []run
			for ci, c := range ref.cells {
				sim, err := gpusim.New(opts.Sim, ref.runs[s.Index].kernel)
				if err != nil {
					return nil, err
				}
				rec := &recorder{}
				if ci != 0 {
					if rec.Controller, err = NewController(c.mech, c.preset, opts); err != nil {
						return nil, err
					}
					sim.SetController(rec)
				}
				runs = append(runs, run{sim.Run(ref.opts.MaxRunPs), rec.calls})
			}
			return runs, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	solo := map[string][]run{}
	for i, k := range ref.runs {
		solo[k.spec.Name] = perKernel[i]
	}

	check := func(t *testing.T, opts Fig4Options) {
		g, err := newGrid(opts)
		if err != nil {
			t.Fatal(err)
		}
		// Filled in by root tasks, one kernel each; read after run returns.
		recs := map[*kernelRun][]*recorder{}
		for _, k := range g.runs {
			recs[k] = make([]*recorder, len(g.cells))
		}
		g.wrap = func(k *kernelRun, cell int, ctrl gpusim.Controller) gpusim.Controller {
			recs[k][cell] = &recorder{Controller: ctrl}
			return recs[k][cell]
		}
		if err := g.run(); err != nil {
			t.Fatal(err)
		}
		var served int64
		for _, k := range g.runs {
			for ci, c := range g.cells {
				want := solo[k.spec.Name][ci]
				served += int64(want.res.Epochs)
				if got := k.results[ci]; got != want.res {
					t.Errorf("%s %s@%g: shared run %+v, solo run %+v", k.spec.Name, c.mech, c.preset, got, want.res)
				}
				if ci == 0 {
					continue
				}
				if got := recs[k][ci].calls; !slices.Equal(got, want.calls) {
					t.Errorf("%s %s@%g: Decide saw %d calls on the shared simulator, %d on its own, or other statistics",
						k.spec.Name, c.mech, c.preset, len(got), len(want.calls))
				}
			}
		}
		if got := g.served.Load(); got != served {
			t.Errorf("EpochsServed = %d, the solo runs finalised %d epochs", got, served)
		}
		if sim, forks := g.simulated.Load(), g.clones.Load(); sim >= served || forks == 0 {
			t.Errorf("simulated %d of %d epochs with %d clones: nothing was shared", sim, served, forks)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			opts := opts
			opts.Workers = workers
			check(t, opts)
		})
	}
	// One root and eight workers: every worker but one has only split-off
	// groups to take.
	t.Run("one kernel", func(t *testing.T) {
		opts := opts
		opts.Workers = 8
		opts.Kernels = kernelsByName(t, "rodinia.srad")
		check(t, opts)
	})
}

// captureLog points the grid's progress logger at the slice it returns.
func captureLog(opts *Fig4Options) *[]string {
	var lines []string
	opts.Logger = telemetry.NewLoggerFunc(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}, nil)
	return &lines
}

func kernelsByName(t *testing.T, names ...string) []kernels.Spec {
	t.Helper()
	specs := make([]kernels.Spec, len(names))
	for i, name := range names {
		var err error
		if specs[i], err = kernels.ByName(name); err != nil {
			t.Fatal(err)
		}
	}
	return specs
}

// TestFig4SharingCounts pins the counts that explain the speed-up on the
// benchmark's grid (bench/offline.go: 14 kernels x 4 mechanisms x 2
// presets at scale 0.4), and that the registry, the one-line report and
// the group spans say the same.
func TestFig4SharingCounts(t *testing.T) {
	opts := committedGrid(t)
	opts.Presets = []float64{0.10, 0.20}
	opts.Mechanisms = []Mechanism{MechBaseline, MechPCSTALL, MechSSMDVFS, MechSSMDVFSComp}
	opts.Workers = 4
	opts.Telemetry = telemetry.NewRegistry()
	var spansBuf bytes.Buffer
	opts.Tracer = telemetry.NewTracer(&spansBuf)
	lines := captureLog(&opts)

	res, err := RunFig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	const simulated, served, clones = 410, 694, 58
	if res.EpochsSimulated != simulated || res.EpochsServed != served || res.Clones != clones {
		t.Fatalf("simulated %d of %d epochs with %d clones, want %d of %d with %d",
			res.EpochsSimulated, res.EpochsServed, res.Clones, simulated, served, clones)
	}
	var line bytes.Buffer
	if err := res.WriteSharing(&line); err != nil || line.String() != "simulated 410 of 694 epochs, 58 clones\n" {
		t.Fatalf("WriteSharing wrote %q, %v", line.String(), err)
	}
	snap := opts.Telemetry.Snapshot()
	for name, want := range map[string]int64{
		"fig4_epochs_simulated_total": simulated,
		"fig4_epochs_served_total":    served,
		"fig4_clones_total":           clones,
		// One task per group: a root per kernel and one per clone.
		telemetry.MetricID("runner_shards_total", "runner", "fig4"): int64(len(opts.Kernels)) + clones,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	// One span per group; a kernel's groups hold each of its cells once, at
	// the end, so their cell counts at the start sum to more.
	if err := opts.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ReadSpans(&spansBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != len(opts.Kernels)+clones {
		t.Fatalf("%d spans, want one per group: %d", len(spans), len(opts.Kernels)+clones)
	}
	roots := 0
	for _, sp := range spans {
		a := sp.Attrs
		if sp.Name != "fig4:shard" || a["kernel"] == "" || a["cells"] == "" || a["first_epoch"] == "" ||
			a["worker"] != strconv.Itoa(sp.TID-1) {
			t.Fatalf("group span %+v lacks kernel, cells, first_epoch or its worker", sp)
		}
		if a["first_epoch"] == "0" {
			roots++
			if a["cells"] != "7" {
				t.Errorf("%s starts with %s cells, want the baseline and 3 mechanisms x 2 presets", a["kernel"], a["cells"])
			}
		}
	}
	if roots != len(opts.Kernels) {
		t.Errorf("%d groups start at epoch 0, want one per kernel", roots)
	}

	// A progress line per kernel baseline and per simulated cell.
	if want := len(opts.Kernels) * 7; len(*lines) != want {
		t.Errorf("%d progress lines, want %d", len(*lines), want)
	}
	for _, l := range *lines {
		if !strings.HasPrefix(l, "fig4: ") || !(strings.Contains(l, " baseline T=") || strings.Contains(l, " edp=")) {
			t.Errorf("unexpected progress line %q", l)
		}
	}
}

// TestFig4RunPastMaxRunPs: a run that does not finish inside MaxRunPs fails
// the grid with an error naming the kernel and the first mechanism still
// on that simulator — the baseline when not even it completes.
func TestFig4RunPastMaxRunPs(t *testing.T) {
	opts := committedGrid(t)
	opts.Kernels = kernelsByName(t, "rodinia.cfd")
	opts.Presets = []float64{0.10}
	opts.Mechanisms = []Mechanism{MechBaseline}
	res, err := RunFig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	baseT := res.Rows[0].ExecPs

	// Enough time for the baseline and for the default level pinned, which
	// never leaves the baseline's simulator; not for level 0, the slowest
	// clock, which forks at the first boundary.
	pinned := Mechanism(fmt.Sprintf("static-%d", opts.Sim.OPs.Default()))
	opts.Mechanisms = []Mechanism{pinned, "static-0"}
	opts.MaxRunPs = baseT + 1
	want := fmt.Sprintf("experiments: static-0 on rodinia.cfd: run did not complete within %d ps", opts.MaxRunPs)
	if _, err := RunFig4(opts); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("got %v, want an error ending in %q", err, want)
	}
	opts.Mechanisms = []Mechanism{pinned}
	opts.MaxRunPs = baseT / 2
	want = fmt.Sprintf("experiments: baseline run of rodinia.cfd: run did not complete within %d ps", opts.MaxRunPs)
	if _, err := RunFig4(opts); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("got %v, want an error ending in %q", err, want)
	}
}

// TestStaticBestReadsTheBaseline: static-best simulates each level once per
// kernel whatever the presets, takes the default level's run from the
// baseline, and picks what it picked when every (kernel, preset) cell ran
// all six levels itself: the levels and normalized EDPs below are the
// parent commit's on the six headroom kernels at the 10 % preset.
func TestStaticBestReadsTheBaseline(t *testing.T) {
	opts := committedGrid(t)
	opts.Kernels = opts.Kernels[:6]
	opts.Presets = []float64{0.10, 0.20}
	opts.Mechanisms = []Mechanism{MechStaticBest}
	lines := captureLog(&opts)
	res, err := RunFig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	wantEDP := []float64{0.7140438049960631, 0.7731779060066284, 0.96664828409134,
		0.702476001189677, 0.696539283066681, 0.970197858807193}
	wantLevel := []int{0, 3, 4, 0, 0, 4}
	for i, want := range wantEDP {
		row := res.Rows[2*i] // the kernel's 10 % row
		if row.Mechanism != MechStaticBest || row.Preset != 0.10 || row.NormEDP != want {
			t.Errorf("%s: static-best row %+v, want norm EDP %v", row.Kernel, row, want)
		}
		line := fmt.Sprintf("fig4: %-24s %-18s preset=10%% edp=%.3f lat=%.3f level=%d",
			row.Kernel, MechStaticBest, row.NormEDP, row.NormLatency, wantLevel[i])
		if !slices.Contains(*lines, line) {
			t.Errorf("no progress line %q", line)
		}
	}
	// The only shared group is the lone baseline: everything else static-best
	// simulated is its own five fixed-level runs per kernel.
	if res.EpochsSimulated != res.EpochsServed || res.Clones != 0 {
		t.Errorf("a static-best grid shares nothing: simulated %d of %d epochs, %d clones",
			res.EpochsSimulated, res.EpochsServed, res.Clones)
	}
}
