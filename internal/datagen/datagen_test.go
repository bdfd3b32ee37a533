package datagen

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/isa"
)

// testKernel is memory+compute mixed, long enough for a few epochs on the
// tiny config.
func testKernel() isa.Kernel {
	prog := isa.Program{
		Body: []isa.Instruction{
			{Op: isa.OpLoadGlobal, Dst: 1, Mem: isa.MemSpec{
				Base: 0x1000_0000, FootprintBytes: 8 << 20, StrideBytes: 256,
				WarpStrideBytes: 1 << 14, CoalescedLines: 4, Pattern: isa.PatternSequential,
			}},
			{Op: isa.OpFAlu, Dst: 2, SrcA: 1},
			{Op: isa.OpFAlu, Dst: 3, SrcA: 2},
			{Op: isa.OpFAlu, Dst: 4, SrcA: 3},
			{Op: isa.OpIAlu, Dst: 5, SrcA: 5},
		},
		Iterations: 2500,
	}
	return isa.Kernel{Name: "dg-test", WarpsPerCluster: 8, Programs: []isa.Program{prog}}
}

var (
	sharedOnce sync.Once
	sharedDS   *Dataset
	sharedErr  error
)

// sharedDataset generates the test corpus once; several tests only read it.
func sharedDataset(t *testing.T) *Dataset {
	t.Helper()
	sharedOnce.Do(func() {
		sharedDS, sharedErr = runOne(testConfig())
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedDS
}

// runOne runs the methodology over the one test kernel.
func runOne(cfg Config) (*Dataset, error) {
	return RunSuite(SuiteOptions{Config: cfg, Kernels: []isa.Kernel{testKernel()}})
}

func testConfig() Config {
	sim := gpusim.SmallConfig()
	sim.Clusters = 2
	cfg := DefaultConfig(sim)
	cfg.BreakpointPs = 30_000_000 // 30 µs
	cfg.MaxBreakpoints = 1
	cfg.FeatureLevels = []int{0, sim.OPs.Default()}
	return cfg
}

func TestGenerateShape(t *testing.T) {
	cfg := testConfig()
	ds := sharedDataset(t)
	_ = cfg
	levels := cfg.Sim.OPs.Len()
	// 1 breakpoint × 2 feature levels × 6 levels × 2 clusters.
	want := 1 * 2 * levels * cfg.Sim.Clusters
	if len(ds.Samples) != want {
		t.Fatalf("got %d samples, want %d", len(ds.Samples), want)
	}
	if len(ds.CounterNames) != counters.Num {
		t.Fatalf("counter names = %d, want %d", len(ds.CounterNames), counters.Num)
	}
	for i, s := range ds.Samples {
		if len(s.Features) != counters.Num {
			t.Fatalf("sample %d has %d features", i, len(s.Features))
		}
		if s.Level < 0 || s.Level >= levels {
			t.Fatalf("sample %d level %d out of range", i, s.Level)
		}
	}
}

func TestGenerateDefaultLevelHasZeroLoss(t *testing.T) {
	cfg := testConfig()
	ds := sharedDataset(t)
	_ = cfg
	def := cfg.Sim.OPs.Default()
	for _, s := range ds.Samples {
		if s.Level == def && (s.PerfLoss > 1e-9 || s.PerfLoss < -1e-9) {
			t.Fatalf("default-level sample has loss %g, want 0 (it is its own reference)", s.PerfLoss)
		}
	}
}

func TestGenerateLossMonotoneTendency(t *testing.T) {
	// Window-normalized loss at the minimum level must be at least the
	// loss at the default level for the same breakpoint/feature window.
	cfg := testConfig()
	ds := sharedDataset(t)
	_ = cfg
	type key struct {
		bp, cluster int
		featIPC     float64
	}
	byKey := map[key]map[int]float64{}
	for _, s := range ds.Samples {
		k := key{s.Breakpoint, s.Cluster, s.Features[counters.IdxIPC]}
		if byKey[k] == nil {
			byKey[k] = map[int]float64{}
		}
		byKey[k][s.Level] = s.PerfLoss
	}
	for k, losses := range byKey {
		if losses[0] < losses[cfg.Sim.OPs.Default()]-0.02 {
			t.Fatalf("group %+v: min-level loss %g below default-level loss %g", k, losses[0], losses[cfg.Sim.OPs.Default()])
		}
	}
}

func TestGenerateScalingInstrPositive(t *testing.T) {
	cfg := testConfig()
	ds := sharedDataset(t)
	_ = cfg
	positive := 0
	for _, s := range ds.Samples {
		if s.ScalingInstr > 0 {
			positive++
		}
	}
	if positive == 0 {
		t.Fatal("no sample recorded scaling-window instructions")
	}
}

func TestGenerateValidation(t *testing.T) {
	cfg := testConfig()
	cfg.BreakpointPs = 15_000_000 // not a multiple of 10 µs epochs
	if _, err := runOne(cfg); err == nil {
		t.Fatal("non-epoch-aligned breakpoint accepted")
	}
	cfg = testConfig()
	cfg.ClusterStride = 0
	if _, err := runOne(cfg); err == nil {
		t.Fatal("zero stride accepted")
	}
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	cfg := testConfig()
	ds := sharedDataset(t)
	_ = cfg
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != len(ds.Samples) {
		t.Fatalf("round trip lost samples: %d vs %d", len(got.Samples), len(ds.Samples))
	}
	if got.Samples[3].PerfLoss != ds.Samples[3].PerfLoss {
		t.Fatal("sample data corrupted in round trip")
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	cases := []string{
		``,
		`{"levels":6,"samples":[]}`, // no counter names
		`{"counter_names":["a"],"levels":6,"samples":[{"features":[1,2]}]}`,         // feature len mismatch
		`{"counter_names":["a"],"levels":2,"samples":[{"level":5,"features":[1]}]}`, // level out of range
	}
	// A corpus whose counter layout is not the program's: two columns
	// swapped, and one column dropped from the names and every row.
	layout := func(names []string) string {
		b, err := json.Marshal(&Dataset{CounterNames: names, Levels: 2,
			Samples: []Sample{{Level: 1, Features: make([]float64, len(names))}}})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	ok := layout(counters.Names())
	if _, err := Load(strings.NewReader(ok)); err != nil {
		t.Fatalf("the program's own layout refused: %v", err)
	}
	swapped := counters.Names()
	swapped[3], swapped[4] = swapped[4], swapped[3]
	dropped := counters.Names()
	dropped = append(dropped[:7], dropped[8:]...)
	cases = append(cases, layout(swapped), layout(dropped))
	for i, c := range cases {
		if _, err := Load(bytes.NewReader([]byte(c))); err == nil {
			t.Fatalf("corrupt dataset %d accepted", i)
		}
	}

	// Valid JSON of a valid dataset, in a form Save does not write: each
	// is refused at the offset where it departs from that form.
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(ok), "", "  "); err != nil {
		t.Fatal(err)
	}
	form := []struct{ name, in string }{
		{"keys reordered", strings.Replace(ok, `"breakpoint":0,"cluster":0,`, `"cluster":0,"breakpoint":0,`, 1)},
		{"case-folded key", strings.Replace(ok, `"levels":`, `"Levels":`, 1)},
		{"repeated key", strings.Replace(ok, `"level":1,`, `"level":1,"level":1,`, 1)},
		{"unknown key", strings.Replace(ok, `"kernel":`, `"note":"x","kernel":`, 1)},
		{"null sample field", strings.Replace(ok, `"perf_loss":0,`, `"perf_loss":null,`, 1)},
		{"indented", indented.String()},
		{"trailing bytes", ok + "\n{}"},
	}
	for _, f := range form {
		name, c := f.name, f.in
		var ref Dataset
		if err := json.NewDecoder(strings.NewReader(c)).Decode(&ref); err != nil || ref.validate() != nil || c == ok {
			t.Fatalf("%s: not a rewrite of the valid corpus that encoding/json reads (%v)", name, err)
		}
		_, err := Load(strings.NewReader(c))
		if err == nil || !strings.Contains(err.Error(), "offset ") {
			t.Fatalf("%s: Load error %v, want a refusal at an offset", name, err)
		}
	}
}

func TestSplitPartitions(t *testing.T) {
	ds := &Dataset{CounterNames: []string{"a"}, Levels: 2}
	for i := 0; i < 100; i++ {
		ds.Samples = append(ds.Samples, Sample{Level: i % 2, Features: []float64{float64(i)}})
	}
	train, val := ds.Split(0.8, 1)
	if len(train.Samples) != 80 || len(val.Samples) != 20 {
		t.Fatalf("split sizes %d/%d, want 80/20", len(train.Samples), len(val.Samples))
	}
	// Same seed → same split.
	train2, _ := ds.Split(0.8, 1)
	for i := range train.Samples {
		if train.Samples[i].Features[0] != train2.Samples[i].Features[0] {
			t.Fatal("split not deterministic")
		}
	}
	// Union check: every original feature value appears exactly once.
	seen := map[float64]int{}
	for _, s := range train.Samples {
		seen[s.Features[0]]++
	}
	for _, s := range val.Samples {
		seen[s.Features[0]]++
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("sample %g appears %d times", v, n)
		}
	}
}

func TestDecisionAndCalibratorRows(t *testing.T) {
	ds := &Dataset{CounterNames: []string{"a", "b", "c"}, Levels: 3}
	ds.Samples = append(ds.Samples, Sample{
		Level: 2, Features: []float64{10, 20, 30}, PerfLoss: 0.15, ScalingInstr: 999,
	})
	rows, labels := ds.DecisionRows([]int{0, 2})
	if len(rows) != 1 || len(rows[0]) != 3 {
		t.Fatalf("decision row shape wrong: %v", rows)
	}
	if rows[0][0] != 10 || rows[0][1] != 30 || rows[0][2] != 0.15 || labels[0] != 2 {
		t.Fatalf("decision row content wrong: %v label %d", rows[0], labels[0])
	}
	crows, targets := ds.CalibratorRows([]int{1})
	if len(crows[0]) != 3 || crows[0][0] != 20 || crows[0][1] != 0.15 || crows[0][2] != 2 {
		t.Fatalf("calibrator row wrong: %v", crows[0])
	}
	if targets[0] != 999 {
		t.Fatalf("calibrator target = %g", targets[0])
	}
}

func TestDecisionRowsPresetSampled(t *testing.T) {
	// One complete group with known, monotone losses per level.
	ds := &Dataset{CounterNames: counters.Names(), Levels: 4}
	feats := make([]float64, counters.Num)
	feats[counters.IdxIPC] = 1.5
	losses := []float64{0.30, 0.15, 0.05, 0.0}
	for lvl, loss := range losses {
		ds.Samples = append(ds.Samples, Sample{
			Kernel: "k", Breakpoint: 1, Cluster: 0, Level: lvl,
			Features: feats, PerfLoss: loss, ScalingInstr: 100,
		})
	}
	rows, labels := ds.DecisionRowsPresetSampled(nil, 16, 1)
	if len(rows) != 16 {
		t.Fatalf("got %d rows, want 16", len(rows))
	}
	for i, row := range rows {
		p := row[len(row)-1]
		// Recompute the expected label: minimum level with loss <= p.
		want := ds.Levels - 1
		for lvl, loss := range losses {
			if loss <= p {
				want = lvl
				break
			}
		}
		if labels[i] != want {
			t.Fatalf("row %d preset %.3f: label %d, want %d", i, p, labels[i], want)
		}
	}
}

func TestDecisionRowsPresetSampledSkipsIncompleteGroups(t *testing.T) {
	ds := &Dataset{CounterNames: counters.Names(), Levels: 4}
	feats := make([]float64, counters.Num)
	// Only 2 of 4 levels present: the group is incomplete and must be
	// skipped rather than mislabelled.
	for _, lvl := range []int{0, 3} {
		ds.Samples = append(ds.Samples, Sample{
			Kernel: "k", Level: lvl, Features: feats, PerfLoss: 0.1,
		})
	}
	rows, _ := ds.DecisionRowsPresetSampled(nil, 8, 1)
	if len(rows) != 0 {
		t.Fatalf("incomplete group produced %d rows", len(rows))
	}
}

func TestDecisionRowsPresetSampledSeparatesWindows(t *testing.T) {
	// Two groups sharing (kernel, breakpoint, cluster) but with different
	// feature vectors (e.g. feature windows at different OPs) must not
	// merge.
	ds := &Dataset{CounterNames: counters.Names(), Levels: 2}
	for g := 0; g < 2; g++ {
		feats := make([]float64, counters.Num)
		feats[counters.IdxIPC] = float64(g + 1)
		for lvl := 0; lvl < 2; lvl++ {
			ds.Samples = append(ds.Samples, Sample{
				Kernel: "k", Breakpoint: 1, Cluster: 0, Level: lvl,
				Features: feats, PerfLoss: float64(1-lvl) * 0.2,
			})
		}
	}
	rows, _ := ds.DecisionRowsPresetSampled(nil, 4, 1)
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8 (two separate groups)", len(rows))
	}
}
