package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"ssmdvfs/internal/atomicfile"
	"ssmdvfs/internal/core"
	"ssmdvfs/internal/kernels"
)

func TestPresetSweepMonotoneTendency(t *testing.T) {
	p := sharedPipeline(t)
	opts := testPipelineOpts()
	res, err := RunFig4(Fig4Options{
		Sim:        opts.Sim,
		Kernels:    kernels.Evaluation()[:3],
		Scale:      opts.Scale,
		Presets:    []float64{0.02, 0.10, 0.30},
		Model:      p.Model,
		Mechanisms: []Mechanism{MechSSMDVFS},
	})
	if err != nil {
		t.Fatal(err)
	}
	points := res.Summaries
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	// A looser budget should never *increase* EDP much: the controller
	// can always fall back to faster levels. Allow small noise.
	if points[2].GMeanEDP > points[0].GMeanEDP+0.05 {
		t.Fatalf("EDP at 30%% preset (%.3f) much worse than at 2%% (%.3f)",
			points[2].GMeanEDP, points[0].GMeanEDP)
	}
	// Latency grows (or stays flat) with the budget.
	if points[2].MeanLatency+0.02 < points[0].MeanLatency {
		t.Fatalf("latency at 30%% (%.3f) below latency at 2%% (%.3f)",
			points[2].MeanLatency, points[0].MeanLatency)
	}
	var buf bytes.Buffer
	if err := res.WriteSummaries(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gmean_edp") || strings.Contains(buf.String(), "norm_edp") {
		t.Fatalf("summary table has the wrong header:\n%s", buf.String())
	}
}

// TestPresetSweepValidation: the model is a requirement of the SSMDVFS
// mechanisms, not of the grid.
func TestPresetSweepValidation(t *testing.T) {
	opts := QuickPipelineOptions()
	grid := Fig4Options{
		Sim:     opts.Sim,
		Kernels: kernels.Evaluation()[:1],
		Scale:   opts.Scale,
		Presets: []float64{0.10},
	}
	for _, mech := range []Mechanism{MechSSMDVFS, MechSSMDVFSNoCal, MechSSMDVFSComp} {
		grid.Mechanisms = []Mechanism{MechPCSTALL, mech}
		if _, err := RunFig4(grid); err == nil {
			t.Fatalf("%s without a model accepted", mech)
		}
	}
	grid.Mechanisms = []Mechanism{MechBaseline, MechPCSTALL}
	res, err := RunFig4(grid)
	if err != nil {
		t.Fatalf("analytical-only grid needs no model: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
}

func TestHeadroomOraclesDominate(t *testing.T) {
	p := sharedPipeline(t)
	opts := testPipelineOpts()
	const preset = 0.10
	mechs := []Mechanism{MechSSMDVFS, MechStaticBest, MechOracleGreedy}
	res, err := RunFig4(Fig4Options{
		Sim:        opts.Sim,
		Kernels:    kernels.Evaluation()[:2],
		Scale:      opts.Scale,
		Presets:    []float64{preset},
		Model:      p.Model,
		Mechanisms: mechs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2*len(mechs) {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for i := 0; i < len(res.Rows); i += len(mechs) {
		ssm, static, greedy := res.Rows[i], res.Rows[i+1], res.Rows[i+2]
		if ssm.NormEDP <= 0 || static.NormEDP <= 0 || greedy.NormEDP <= 0 {
			t.Fatalf("degenerate rows %+v %+v %+v", ssm, static, greedy)
		}
		// The static-best oracle optimizes EDP under the same loss budget
		// with perfect knowledge; online SSMDVFS should not beat it by a
		// wide margin (small tolerance: SSMDVFS may exceed the loss budget
		// slightly where the oracle may not).
		if ssm.NormEDP < static.NormEDP-0.08 {
			t.Fatalf("%s: SSMDVFS (%.3f) implausibly beats the static oracle (%.3f)",
				ssm.Kernel, ssm.NormEDP, static.NormEDP)
		}
		// An upper bound keeps the contract it is a bound under, and is
		// never worse than doing nothing.
		for _, o := range []Fig4Row{static, greedy} {
			if !o.WithinPreset || o.NormEDP > 1+1e-9 {
				t.Fatalf("%s: %s breaks its own preset or the baseline: loss %+.2f%%, EDP %.3f",
					o.Kernel, o.Mechanism, o.PerfLoss*100, o.NormEDP)
			}
		}
	}
	var buf bytes.Buffer
	if err := res.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"oracle-greedy", "static-best", "perf_loss", "within"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("table missing %q", want)
		}
	}
}

// TestNewControllerNames is the table for the one name→controller
// factory: what the grid, dvfstrace and the benches may spell, and what
// is refused before anything is simulated or trained.
func TestNewControllerNames(t *testing.T) {
	load := func(name string) *core.Model {
		m, err := core.LoadFile("../../testdata/bench-cache/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	opts := Fig4Options{Sim: QuickPipelineOptions().Sim, Model: load("model.json"), Compressed: load("compressed.json"), Seed: 1}

	// The controller's Name() per spelling; none = accepted, and no
	// controller is needed.
	const none, refused = "", "!"
	want := map[Mechanism]string{
		MechBaseline: none, MechStaticBest: none, MechOracleGreedy: none,
		MechPCSTALL: "pcstall", MechFLEMMA: "flemma",
		MechSSMDVFS: "ssmdvfs", MechSSMDVFSNoCal: "ssmdvfs-nocal", MechSSMDVFSComp: "ssmdvfs",
		"magic": refused, "": refused, "ssmdvfs-typo": refused, "static-best-ever": refused,
		"static-x": refused, "static-": refused, "static--1": refused, "static-9": refused,
	}
	levels := opts.Sim.OPs.Len()
	for lvl := 0; lvl < levels; lvl++ {
		name := fmt.Sprintf("static-%d", lvl)
		want[Mechanism(name)] = name
	}
	want[Mechanism(fmt.Sprintf("static-%d", levels))] = refused
	for _, m := range AllMechanisms() {
		if w, ok := want[m]; !ok || w == refused {
			t.Fatalf("the table does not accept %s, which AllMechanisms lists", m)
		}
	}
	for mech, w := range want {
		got := refused
		if ctrl, err := NewController(mech, 0.10, opts); err == nil {
			got = none
			if ctrl != nil {
				got = ctrl.Name()
			}
		}
		if got != w {
			t.Errorf("%q: got %q, want %q", mech, got, w)
		}
	}
}

func TestFig4SaveLoadRoundTrip(t *testing.T) {
	res := &Fig4Result{
		Rows:      []Fig4Row{{Kernel: "k", Mechanism: MechSSMDVFS, Preset: 0.1, NormEDP: 0.85, NormLatency: 1.02}},
		Summaries: []Fig4Summary{{Mechanism: MechSSMDVFS, Preset: 0.1, GMeanEDP: 0.85, Kernels: 1}},
	}
	path := t.TempDir() + "/fig4.json"
	if err := res.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := atomicfile.ReadWith(path, func(r io.Reader) (got Fig4Result, err error) {
		return got, json.NewDecoder(r).Decode(&got)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0].NormEDP != 0.85 || got.Summaries[0].Mechanism != MechSSMDVFS {
		t.Fatalf("round trip corrupted: %+v", got)
	}
}
