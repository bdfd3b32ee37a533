package epochtrace

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/isa"
	"ssmdvfs/internal/kernels"
)

func sampleStats(epoch, cluster, level int) gpusim.EpochStats {
	s := gpusim.EpochStats{
		Epoch:        epoch,
		Cluster:      cluster,
		StartPs:      int64(epoch) * 10_000_000,
		EndPs:        int64(epoch+1) * 10_000_000,
		Level:        level,
		OP:           clockdomain.TitanX().Point(level),
		Instructions: 12345,
		Cycles:       11000,
		ActiveCycles: 9000,
		StallMemLoad: 500, StallControl: 70,
		L1ReadHits: 300, L1ReadMisses: 100,
		L2Accesses: 100, L2Hits: 60, L2Misses: 40,
		DRAMLines: 42,
		DynPowerW: 4.5, StaticPowerW: 1.5,
		EnergyPJ:    6e7,
		WarpsActive: 8,
	}
	s.OpCounts[isa.OpBranch] = 900
	return s
}

func sampleTrace() *Trace {
	t := &Trace{}
	for e := 0; e < 5; e++ {
		for c := 0; c < 2; c++ {
			t.Observe(sampleStats(e, c, e%3))
		}
	}
	return t
}

func roundTrip(t *testing.T, trace *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestCSVRoundTrip(t *testing.T) {
	trace := sampleTrace()
	// Values whose shortest form is long, signed or not finite.
	trace.Records[1].Counters[counters.IdxIPC] = 1.0 / 3
	trace.Records[2].Counters[counters.IdxPPC] = math.Copysign(0, -1)
	trace.Records[3].Counters[counters.IdxPPC] = math.Inf(1)
	got := roundTrip(t, trace)
	if len(got.Records) != len(trace.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(got.Records), len(trace.Records))
	}
	for i, want := range trace.Records {
		r := got.Records[i]
		if r.Epoch != want.Epoch || r.Cluster != want.Cluster || !sameBits(r.Counters, want.Counters) {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, r, want)
		}
	}
}

func TestReadCSVRejectsCorrupt(t *testing.T) {
	head := "epoch,cluster," + strings.Join(counters.Names(), ",")
	row := "0,0" + strings.Repeat(",1", counters.Num)
	// The 18-column header an older dvfstrace wrote.
	old := "epoch,cluster,start_us,level,freq_mhz,voltage_v,instructions,ipc,active_frac," +
		"stall_mem,stall_mem_other,stall_compute,l1_miss_rate,l1_read_misses,dram_lines,power_w,energy_pj,warps_active"
	if _, err := ReadCSV(strings.NewReader(head + "\n" + row + "\n")); err != nil {
		t.Fatalf("well-formed CSV refused: %v", err)
	}
	for i, c := range []string{
		"",
		"a,b,c\n1,2,3\n",
		old + "\n0,0,0,5,1100,1.1,1,1,1,0,0,0,0,0,0,6,1,8\n",
		strings.Replace(head, "ipc", "ipc2", 1) + "\n" + row + "\n",
		head + "\nnot,enough,columns\n",
		head + "\n" + strings.Replace(row, "1", "x", 1) + "\n",
	} {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Fatalf("corrupt CSV %d accepted", i)
		}
	}
}

func TestClusterFilterAndHistogram(t *testing.T) {
	trace := sampleTrace()
	c0 := trace.Cluster(0)
	if len(c0) != 5 {
		t.Fatalf("cluster 0 has %d records, want 5", len(c0))
	}
	for i, r := range c0 {
		if r.Cluster != 0 || r.Epoch != i {
			t.Fatalf("cluster filter wrong at %d: %+v", i, r)
		}
	}
	hist := trace.LevelHistogram(6)
	// Epochs 0..4 at level e%3 across 2 clusters: levels 0,1,2,0,1.
	if hist[0] != 4 || hist[1] != 4 || hist[2] != 2 {
		t.Fatalf("histogram = %v", hist)
	}
}

func TestMeanPowerAndSum(t *testing.T) {
	trace := sampleTrace()
	if got := trace.MeanPowerW(); got != 6.0 {
		t.Fatalf("mean power = %g, want 6", got)
	}
	if got := trace.Sum(counters.IdxStallControl); got != 700 {
		t.Fatalf("stall_control sum = %g, want 700", got)
	}
	if got := (&Trace{}).MeanPowerW(); got != 0 {
		t.Fatalf("empty trace mean power = %g", got)
	}
}

// TestTraceFromSimulator wires the observer into a real simulation.
func TestTraceFromSimulator(t *testing.T) {
	cfg := gpusim.SmallConfig()
	cfg.Clusters = 2
	prog := isa.Program{
		Body:       []isa.Instruction{{Op: isa.OpFAlu, Dst: 1, SrcA: 1}},
		Iterations: 30000,
	}
	sim, err := gpusim.New(cfg, gpusim.Kernel{Name: "t", WarpsPerCluster: 4, Programs: []isa.Program{prog}})
	if err != nil {
		t.Fatal(err)
	}
	trace := &Trace{}
	sim.SetObserver(trace.Observe)
	res := sim.Run(1_000_000_000_000)
	if !res.Completed {
		t.Fatal("kernel incomplete")
	}
	if len(trace.Records) != res.Epochs*cfg.Clusters {
		t.Fatalf("trace has %d records, want %d", len(trace.Records), res.Epochs*cfg.Clusters)
	}
}

// stepLevels moves every cluster through the operating-point table, so
// the level, frequency, voltage and transition-stall columns all vary.
type stepLevels struct{ levels int }

func (stepLevels) Name() string { return "step" }
func (c stepLevels) Decide(s gpusim.EpochStats) int {
	return (s.Epoch + s.Cluster) % c.levels
}

// TestTraceRowIsFromStats pins the one epoch record: every epoch a
// simulator observes, written by WriteCSV and read back by ReadCSV, is
// counters.FromStats of that epoch bit for bit — the op mix, L2, control stalls and power split included.
func TestTraceRowIsFromStats(t *testing.T) {
	for _, name := range []string{"rodinia.b+tree", "parboil.sgemm", "rodinia.srad"} {
		spec, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := gpusim.SmallConfig()
		sim, err := gpusim.New(cfg, spec.Build(0.4))
		if err != nil {
			t.Fatal(err)
		}
		trace := &Trace{}
		var want []gpusim.EpochStats
		sim.SetObserver(func(s gpusim.EpochStats) {
			want = append(want, s)
			trace.Observe(s)
		})
		sim.SetController(stepLevels{cfg.OPs.Len()})
		if res := sim.Run(gpusim.DefaultMaxRunPs); !res.Completed {
			t.Fatalf("%s: kernel incomplete", name)
		}

		got := roundTrip(t, trace)
		if len(got.Records) != len(want) {
			t.Fatalf("%s: trace has %d records, want %d", name, len(got.Records), len(want))
		}
		var l2, branch bool
		for i, s := range want {
			row := got.Records[i].Counters
			if r := got.Records[i]; r.Epoch != s.Epoch || r.Cluster != s.Cluster {
				t.Fatalf("%s: record %d is (%d, %d), want (%d, %d)", name, i, r.Epoch, r.Cluster, s.Epoch, s.Cluster)
			}
			ref := counters.FromStats(s)
			if !sameBits(row, ref) {
				for j := range ref {
					if math.Float64bits(row[j]) != math.Float64bits(ref[j]) {
						t.Fatalf("%s: epoch %d cluster %d counter %s: %g != %g",
							name, s.Epoch, s.Cluster, counters.Def(j).Name, row[j], ref[j])
					}
				}
			}
			l2 = l2 || s.L2Accesses > 0
			branch = branch || s.OpCounts[isa.OpBranch] > 0
		}
		if name == "rodinia.b+tree" && !(l2 && branch) {
			t.Fatalf("%s: no L2 (%v) or branch (%v) traffic to check", name, l2, branch)
		}
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
