package gpusim

import (
	"testing"

	"ssmdvfs/internal/isa"
)

// computeTestKernel returns a small compute-bound kernel.
func computeTestKernel(iters int) Kernel {
	prog := isa.Program{
		Body: []isa.Instruction{
			{Op: isa.OpFAlu, Dst: 1, SrcA: 1},
			{Op: isa.OpFAlu, Dst: 2, SrcA: 2},
			{Op: isa.OpFAlu, Dst: 3, SrcA: 3},
			{Op: isa.OpIAlu, Dst: 4, SrcA: 4},
		},
		Iterations: iters,
	}
	return Kernel{Name: "test-compute", WarpsPerCluster: 8, Programs: []isa.Program{prog}}
}

// memoryTestKernel returns a DRAM-streaming kernel.
func memoryTestKernel(iters int) Kernel {
	prog := isa.Program{
		Body: []isa.Instruction{
			{Op: isa.OpLoadGlobal, Dst: 1, Mem: isa.MemSpec{
				Base: 0x1000_0000, FootprintBytes: 64 << 20, StrideBytes: 256,
				WarpStrideBytes: 1 << 16, CoalescedLines: 8, Pattern: isa.PatternSequential,
			}},
			{Op: isa.OpFAlu, Dst: 2, SrcA: 1},
		},
		Iterations: iters,
	}
	return Kernel{Name: "test-memory", WarpsPerCluster: 8, Programs: []isa.Program{prog}}
}

func tinyConfig() Config {
	c := SmallConfig()
	c.Clusters = 2
	return c
}

const testMaxPs = 1_000_000_000_000 // 1 ms

func mustRun(t *testing.T, cfg Config, k Kernel, ctrl Controller) Result {
	t.Helper()
	sim, err := New(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl != nil {
		sim.SetController(ctrl)
	}
	res := sim.Run(testMaxPs)
	if !res.Completed {
		t.Fatalf("kernel %s did not complete", k.Name)
	}
	return res
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}, computeTestKernel(10)); err == nil {
		t.Fatal("zero config accepted")
	}
	bad := computeTestKernel(10)
	bad.Programs = nil
	if _, err := New(tinyConfig(), bad); err == nil {
		t.Fatal("invalid kernel accepted")
	}
	// A cluster's warps are one machine word of the scheduler's sets.
	wide := computeTestKernel(10)
	wide.WarpsPerCluster = maxClusterWarps + 1
	if _, err := New(tinyConfig(), wide); err == nil {
		t.Fatalf("%d warps per cluster accepted", wide.WarpsPerCluster)
	}
	wide.WarpsPerCluster = maxClusterWarps
	if _, err := New(tinyConfig(), wide); err != nil {
		t.Fatalf("%d warps per cluster refused: %v", wide.WarpsPerCluster, err)
	}
}

func TestRunExecutesAllInstructions(t *testing.T) {
	cfg := tinyConfig()
	k := computeTestKernel(100)
	res := mustRun(t, cfg, k, nil)
	want := k.TotalInstructions() * int64(cfg.Clusters)
	if res.Instructions != want {
		t.Fatalf("instructions = %d, want %d", res.Instructions, want)
	}
	if res.ExecTimePs <= 0 || res.EnergyPJ <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := tinyConfig()
	k := memoryTestKernel(50)
	r1 := mustRun(t, cfg, k, nil)
	r2 := mustRun(t, cfg, k, nil)
	if r1 != r2 {
		t.Fatalf("same inputs produced different results:\n%+v\n%+v", r1, r2)
	}
}

func TestComputeKernelFrequencySensitivity(t *testing.T) {
	cfg := tinyConfig()
	k := computeTestKernel(2000)

	times := make([]int64, cfg.OPs.Len())
	for lvl := 0; lvl < cfg.OPs.Len(); lvl++ {
		sim, err := New(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		sim.ForceLevel(lvl)
		res := sim.Run(testMaxPs)
		if !res.Completed {
			t.Fatalf("level %d did not complete", lvl)
		}
		times[lvl] = res.ExecTimePs
	}
	// Monotone: lower frequency → no faster.
	for lvl := 1; lvl < len(times); lvl++ {
		if times[lvl] > times[lvl-1] {
			t.Fatalf("level %d (faster) slower than level %d: %d > %d", lvl, lvl-1, times[lvl], times[lvl-1])
		}
	}
	// Compute-bound: slowdown at min level close to the frequency ratio.
	ratio := float64(times[0]) / float64(times[len(times)-1])
	fRatio := cfg.OPs.Point(cfg.OPs.Default()).FrequencyHz / cfg.OPs.Point(0).FrequencyHz
	if ratio < fRatio*0.9 || ratio > fRatio*1.1 {
		t.Fatalf("compute-bound slowdown %.3f, want ≈ frequency ratio %.3f", ratio, fRatio)
	}
}

func TestMemoryKernelFrequencyInsensitive(t *testing.T) {
	cfg := tinyConfig()
	k := memoryTestKernel(400)

	var tMin, tMax int64
	for _, lvl := range []int{0, cfg.OPs.Default()} {
		sim, err := New(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		sim.ForceLevel(lvl)
		res := sim.Run(testMaxPs)
		if !res.Completed {
			t.Fatalf("level %d did not complete", lvl)
		}
		if lvl == 0 {
			tMin = res.ExecTimePs
		} else {
			tMax = res.ExecTimePs
		}
	}
	slowdown := float64(tMin)/float64(tMax) - 1
	if slowdown > 0.15 {
		t.Fatalf("memory-bound kernel slowed %.1f%% at min frequency, want < 15%%", slowdown*100)
	}
}

func TestMemoryKernelSavesEnergyAtLowFrequency(t *testing.T) {
	cfg := tinyConfig()
	k := memoryTestKernel(400)
	var eMin, eMax float64
	for _, lvl := range []int{0, cfg.OPs.Default()} {
		sim, err := New(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		sim.ForceLevel(lvl)
		res := sim.Run(testMaxPs)
		if lvl == 0 {
			eMin = res.EnergyPJ
		} else {
			eMax = res.EnergyPJ
		}
	}
	if eMin >= eMax {
		t.Fatalf("memory-bound kernel at min V/f must save energy: %.0f >= %.0f", eMin, eMax)
	}
}

func TestCloneResumesIdentically(t *testing.T) {
	cfg := tinyConfig()
	k := memoryTestKernel(200)

	sim, err := New(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(30_000_000) // 30 µs in
	cl := sim.Clone()

	r1 := sim.Run(testMaxPs)
	r2 := cl.Run(testMaxPs)
	if r1 != r2 {
		t.Fatalf("clone diverged:\noriginal %+v\nclone    %+v", r1, r2)
	}
}

func TestCloneIsolation(t *testing.T) {
	cfg := tinyConfig()
	k := computeTestKernel(2000)
	sim, err := New(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(20_000_000)
	cl := sim.Clone()
	cl.ForceLevel(0)
	cl.RunUntil(40_000_000)
	// The original must be unaffected by the clone's progress or level.
	if sim.clusters[0].domain.Level() != cfg.OPs.Default() {
		t.Fatal("clone ForceLevel leaked into original")
	}
	if sim.NowPs() > 21_000_000 {
		t.Fatalf("original advanced by clone run: now=%d", sim.NowPs())
	}
}

// fixedController always returns the same level.
type fixedController struct{ level int }

func (f *fixedController) Name() string          { return "fixed" }
func (f *fixedController) Decide(EpochStats) int { return f.level }

func TestControllerInvokedPerEpochPerCluster(t *testing.T) {
	cfg := tinyConfig()
	k := computeTestKernel(3000)

	var calls int
	counter := controllerFunc(func(s EpochStats) int {
		calls++
		if s.Cycles <= 0 {
			t.Errorf("epoch %d cluster %d has no cycles", s.Epoch, s.Cluster)
		}
		return cfg.OPs.Default()
	})
	res := mustRun(t, cfg, k, counter)
	if res.Epochs == 0 {
		t.Fatal("no epochs elapsed; kernel too short for the test")
	}
	want := res.Epochs * cfg.Clusters
	if calls != want {
		t.Fatalf("controller called %d times, want %d (epochs=%d clusters=%d)",
			calls, want, res.Epochs, cfg.Clusters)
	}
}

// controllerFunc adapts a function to the Controller interface.
type controllerFunc func(EpochStats) int

func (f controllerFunc) Name() string            { return "func" }
func (f controllerFunc) Decide(s EpochStats) int { return f(s) }

func TestControllerLevelApplied(t *testing.T) {
	cfg := tinyConfig()
	k := computeTestKernel(3000)
	sim, err := New(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetController(&fixedController{level: 0})
	sim.RunUntil(2 * cfg.EpochPs)
	for c := 0; c < cfg.Clusters; c++ {
		if got := sim.clusters[c].domain.Level(); got != 0 {
			t.Fatalf("cluster %d level = %d after controller epochs, want 0", c, got)
		}
	}
}

func TestObserverSeesEpochs(t *testing.T) {
	cfg := tinyConfig()
	k := computeTestKernel(3000)
	sim, err := New(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	var seen []EpochStats
	sim.SetObserver(func(s EpochStats) { seen = append(seen, s) })
	res := sim.Run(testMaxPs)
	if len(seen) != res.Epochs*cfg.Clusters {
		t.Fatalf("observer saw %d snapshots, want %d", len(seen), res.Epochs*cfg.Clusters)
	}
	for i, s := range seen {
		if s.EndPs-s.StartPs != cfg.EpochPs {
			t.Fatalf("snapshot %d spans %d ps, want %d", i, s.EndPs-s.StartPs, cfg.EpochPs)
		}
	}
}

func TestIVRTransitionCostsTime(t *testing.T) {
	cfg := tinyConfig()
	k := computeTestKernel(3000)

	// Oscillating voltage transitions every epoch must cost time vs a
	// static run at the same mean level.
	oscillate := controllerFunc(func(s EpochStats) int {
		if s.Epoch%2 == 0 {
			return 0 // 1.0 V
		}
		return cfg.OPs.Default() // 1.155 V
	})
	rOsc := mustRun(t, cfg, k, oscillate)
	if rOsc.Transitions == 0 {
		t.Fatal("oscillating controller caused no transitions")
	}
	rStatic := mustRun(t, cfg, k, nil)
	if rOsc.ExecTimePs <= rStatic.ExecTimePs {
		t.Fatalf("oscillating DVFS (%d transitions) not slower than static: %d <= %d",
			rOsc.Transitions, rOsc.ExecTimePs, rStatic.ExecTimePs)
	}
}

func TestStallAttributionNonzero(t *testing.T) {
	cfg := tinyConfig()
	var got EpochStats
	sim, err := New(cfg, memoryTestKernel(500))
	if err != nil {
		t.Fatal(err)
	}
	sim.SetObserver(func(s EpochStats) {
		if s.Epoch == 1 && s.Cluster == 0 {
			got = s
		}
	})
	sim.Run(testMaxPs)
	if got.Cycles == 0 {
		t.Fatal("epoch 1 not captured")
	}
	if got.StallMemLoad == 0 {
		t.Fatal("memory-streaming kernel shows no memory-hazard stalls")
	}
	if got.L1ReadMisses == 0 {
		t.Fatal("streaming kernel shows no L1 read misses")
	}
	if got.DRAMLines == 0 {
		t.Fatal("streaming kernel shows no DRAM traffic")
	}
}

func TestComputeKernelStallProfile(t *testing.T) {
	cfg := tinyConfig()
	var got EpochStats
	sim, err := New(cfg, computeTestKernel(5000))
	if err != nil {
		t.Fatal(err)
	}
	sim.SetObserver(func(s EpochStats) {
		if s.Epoch == 1 && s.Cluster == 0 {
			got = s
		}
	})
	sim.Run(testMaxPs)
	if got.Cycles == 0 {
		t.Skip("kernel finished before epoch 1 at this configuration")
	}
	if got.StallMemLoad > got.StallCompute {
		t.Fatalf("compute kernel stalls dominated by memory: MH=%d CH=%d", got.StallMemLoad, got.StallCompute)
	}
	if got.IPC() <= 0 {
		t.Fatal("zero IPC in a busy epoch")
	}
}

func TestForceLevelTakesEffect(t *testing.T) {
	cfg := tinyConfig()
	sim, err := New(cfg, computeTestKernel(100))
	if err != nil {
		t.Fatal(err)
	}
	sim.ForceLevel(2)
	for c := 0; c < cfg.Clusters; c++ {
		if sim.clusters[c].domain.Level() != 2 {
			t.Fatalf("cluster %d level %d, want 2", c, sim.clusters[c].domain.Level())
		}
	}
}

func TestRunRespectsTimeLimit(t *testing.T) {
	cfg := tinyConfig()
	sim, err := New(cfg, computeTestKernel(1_000_000)) // enormous
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(50_000_000) // 50 µs
	res := sim.Run(limit)
	if res.Completed {
		t.Fatal("huge kernel reported completion under a tiny limit")
	}
	if res.ExecTimePs != limit {
		t.Fatalf("ExecTimePs = %d, want limit %d", res.ExecTimePs, limit)
	}
}

func TestEnergyAccumulatesMonotonically(t *testing.T) {
	cfg := tinyConfig()
	k := computeTestKernel(3000)
	sim, err := New(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	var energies []float64
	sim.SetObserver(func(s EpochStats) {
		if s.EnergyPJ < 0 {
			t.Errorf("negative epoch energy: %+v", s)
		}
		energies = append(energies, s.EnergyPJ)
	})
	res := sim.Run(testMaxPs)
	var sum float64
	for _, e := range energies {
		sum += e
	}
	// Total includes the tail epoch, so it must be at least the sum of
	// finalized epochs.
	if res.EnergyPJ < sum {
		t.Fatalf("total energy %g below sum of epochs %g", res.EnergyPJ, sum)
	}
}

func TestSchedulerPoliciesBothComplete(t *testing.T) {
	for _, policy := range []SchedulerPolicy{SchedLRR, SchedGTO} {
		cfg := tinyConfig()
		cfg.Scheduler = policy
		k := memoryTestKernel(150)
		res := mustRun(t, cfg, k, nil)
		want := k.TotalInstructions() * int64(cfg.Clusters)
		if res.Instructions != want {
			t.Fatalf("%v: instructions = %d, want %d", policy, res.Instructions, want)
		}
	}
}

func TestSchedulerPolicyChangesTiming(t *testing.T) {
	// The two policies are different machines; on a mixed kernel their
	// interleavings (and thus cache behaviour and timing) should differ.
	mixed := memoryTestKernel(200)
	mixed.Programs[0].Body = append(mixed.Programs[0].Body,
		isa.Instruction{Op: isa.OpFAlu, Dst: 3, SrcA: 2},
		isa.Instruction{Op: isa.OpFAlu, Dst: 4, SrcA: 3},
	)
	times := map[SchedulerPolicy]int64{}
	for _, policy := range []SchedulerPolicy{SchedLRR, SchedGTO} {
		cfg := tinyConfig()
		cfg.Scheduler = policy
		res := mustRun(t, cfg, mixed, nil)
		times[policy] = res.ExecTimePs
	}
	if times[SchedLRR] == times[SchedGTO] {
		t.Logf("warning: LRR and GTO produced identical timing (%d ps); acceptable but suspicious", times[SchedLRR])
	}
}

func TestSchedulerValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scheduler = SchedulerPolicy(9)
	if _, err := New(cfg, computeTestKernel(10)); err == nil {
		t.Fatal("invalid scheduler accepted")
	}
}

// TestInstructionConservation: DVFS decisions change *when* instructions
// execute, never *how many* — any controller must retire exactly the
// kernel's instruction count.
func TestInstructionConservation(t *testing.T) {
	cfg := tinyConfig()
	k := memoryTestKernel(120)
	want := k.TotalInstructions() * int64(cfg.Clusters)
	controllers := []Controller{
		nil,
		&fixedController{level: 0},
		controllerFunc(func(s EpochStats) int { return (s.Epoch + s.Cluster) % cfg.OPs.Len() }),
		controllerFunc(func(s EpochStats) int { return 5 - s.Epoch%6 }),
	}
	for i, ctrl := range controllers {
		sim, err := New(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		if ctrl != nil {
			sim.SetController(ctrl)
		}
		res := sim.Run(testMaxPs)
		if !res.Completed {
			t.Fatalf("controller %d: incomplete", i)
		}
		if res.Instructions != want {
			t.Fatalf("controller %d: %d instructions, want %d (DVFS must conserve work)",
				i, res.Instructions, want)
		}
	}
}

func TestControllerLevelClamped(t *testing.T) {
	cfg := tinyConfig()
	k := computeTestKernel(3000)
	sim, err := New(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	// A controller returning wild levels must be clamped, not crash.
	sim.SetController(controllerFunc(func(s EpochStats) int { return 999 }))
	sim.RunUntil(2 * cfg.EpochPs)
	for c := 0; c < cfg.Clusters; c++ {
		if got := sim.clusters[c].domain.Level(); got != cfg.OPs.Default() {
			t.Fatalf("cluster %d level %d, want clamped %d", c, got, cfg.OPs.Default())
		}
	}
	sim2, err := New(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	sim2.SetController(controllerFunc(func(s EpochStats) int { return -50 }))
	sim2.RunUntil(2 * cfg.EpochPs)
	if got := sim2.clusters[0].domain.Level(); got != 0 {
		t.Fatalf("negative level clamped to %d, want 0", got)
	}
}

func TestEpochStatsPowerPositiveWhileRunning(t *testing.T) {
	cfg := tinyConfig()
	sim, err := New(cfg, memoryTestKernel(300))
	if err != nil {
		t.Fatal(err)
	}
	sim.SetObserver(func(s EpochStats) {
		if s.WarpsActive > 0 && s.PowerW() <= 0 {
			t.Errorf("epoch %d cluster %d: power %g with active warps", s.Epoch, s.Cluster, s.PowerW())
		}
		if s.StaticPowerW <= 0 {
			t.Errorf("epoch %d: static power %g", s.Epoch, s.StaticPowerW)
		}
	})
	sim.Run(testMaxPs)
}

// TestLowerFrequencyNeverHelpsLatency is the core physical sanity check
// across the whole kernel suite shape space: for every archetype, exec
// time at the minimum level is >= exec time at the default level.
func TestLowerFrequencyNeverHelpsLatency(t *testing.T) {
	kernelsToTry := []Kernel{computeTestKernel(800), memoryTestKernel(150)}
	for _, k := range kernelsToTry {
		cfg := tinyConfig()
		var tMin, tDef int64
		for _, lvl := range []int{0, cfg.OPs.Default()} {
			sim, err := New(cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			sim.ForceLevel(lvl)
			res := sim.Run(testMaxPs)
			if lvl == 0 {
				tMin = res.ExecTimePs
			} else {
				tDef = res.ExecTimePs
			}
		}
		if tMin < tDef {
			t.Fatalf("%s: min frequency finished faster (%d < %d ps)", k.Name, tMin, tDef)
		}
	}
}

// TestEpochStatsInvariants drives a mixed simulation and checks internal
// consistency of every epoch snapshot: op counts sum to the instruction
// count, active cycles never exceed cycles, and cache hits never exceed
// accesses.
func TestEpochStatsInvariants(t *testing.T) {
	cfg := tinyConfig()
	k := memoryTestKernel(300)
	k.Programs[0].Body = append(k.Programs[0].Body,
		isa.Instruction{Op: isa.OpIAlu, Dst: 3, SrcA: 2},
		isa.Instruction{Op: isa.OpBranch, SrcA: 3},
		isa.Instruction{Op: isa.OpLoadShared, Dst: 4},
		isa.Instruction{Op: isa.OpStoreGlobal, SrcA: 4, Mem: isa.MemSpec{
			Base: 0x9000_0000, FootprintBytes: 1 << 20, StrideBytes: 256,
			CoalescedLines: 2, Pattern: isa.PatternSequential,
		}},
	)
	sim, err := New(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	sim.SetObserver(func(s EpochStats) {
		checked++
		var opSum int64
		for _, n := range s.OpCounts {
			opSum += n
		}
		if opSum != s.Instructions {
			t.Errorf("epoch %d: op counts sum %d != instructions %d", s.Epoch, opSum, s.Instructions)
		}
		if s.ActiveCycles > s.Cycles {
			t.Errorf("epoch %d: active cycles %d > cycles %d", s.Epoch, s.ActiveCycles, s.Cycles)
		}
		if s.L2Hits > s.L2Accesses || s.L2Hits+s.L2Misses != s.L2Accesses {
			t.Errorf("epoch %d: L2 accounting %d+%d != %d", s.Epoch, s.L2Hits, s.L2Misses, s.L2Accesses)
		}
		if s.DRAMLines > s.L2Misses {
			t.Errorf("epoch %d: DRAM lines %d exceed L2 misses %d", s.Epoch, s.DRAMLines, s.L2Misses)
		}
		if s.EnergyPJ < 0 || s.DynPowerW < 0 || s.StaticPowerW <= 0 {
			t.Errorf("epoch %d: bad power %g/%g/%g", s.Epoch, s.EnergyPJ, s.DynPowerW, s.StaticPowerW)
		}
	})
	res := sim.Run(testMaxPs)
	if !res.Completed || checked == 0 {
		t.Fatalf("completed=%v epochs checked=%d", res.Completed, checked)
	}
}
