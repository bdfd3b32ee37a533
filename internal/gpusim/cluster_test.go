package gpusim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ssmdvfs/internal/isa"
)

// newTestCluster builds a cluster whose warps all run the given body, with
// its own memory system, for direct pipeline-level testing.
func newTestCluster(t *testing.T, cfg Config, body []isa.Instruction, iters, warps int) (*cluster, *memSystem) {
	t.Helper()
	return newTestClusterProgs(t, cfg, []isa.Program{{Body: body, Iterations: iters}}, warps)
}

// newTestClusterProgs is newTestCluster with warp i running progs[i%len].
func newTestClusterProgs(t *testing.T, cfg Config, progs []isa.Program, warps int) (*cluster, *memSystem) {
	t.Helper()
	k := isa.Kernel{Name: "unit", WarpsPerCluster: warps, Programs: progs}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	return newCluster(0, &cfg, &k), newMemSystem(cfg)
}

// step runs one cluster step against limitPs and then performs the traffic
// it left pending, as CloseEpoch does for a cluster with no other in the
// way: the cluster tests' one way to step.
func step(c *cluster, mem *memSystem, limitPs int64) {
	c.step(limitPs)
	if len(c.pending) > 0 {
		c.resolve(mem)
	}
}

// cycle executes exactly one clock cycle: a limit one picosecond ahead
// leaves step no room to fast-forward.
func cycle(c *cluster, mem *memSystem) { step(c, mem, c.nowPs+1) }

// stepUntilIssued steps the cluster until n instructions have issued or
// the cycle budget runs out, returning cycles spent.
func stepUntilIssued(t *testing.T, c *cluster, mem *memSystem, n int64, budget int) int {
	t.Helper()
	for cycles := 0; cycles < budget; cycles++ {
		if c.acc.instructions >= n {
			return cycles
		}
		cycle(c, mem)
	}
	t.Fatalf("only %d of %d instructions issued within %d cycles", c.acc.instructions, n, budget)
	return 0
}

func TestRAWHazardDelaysDependent(t *testing.T) {
	cfg := SmallConfig()
	// r1 <- FALU; r2 <- FALU(r1): the second must wait FAluLatency cycles.
	body := []isa.Instruction{
		{Op: isa.OpFAlu, Dst: 1, SrcA: 2},
		{Op: isa.OpFAlu, Dst: 3, SrcA: 1},
	}
	c, mem := newTestCluster(t, cfg, body, 1, 1)
	cycles := stepUntilIssued(t, c, mem, 2, 1000)
	// Issue at cycle 0, dependent ready after FAluLatency cycles.
	if cycles < cfg.FAluLatency {
		t.Fatalf("dependent issued after %d cycles, want >= %d", cycles, cfg.FAluLatency)
	}
	if c.acc.stalls[stallComputeR] == 0 {
		t.Fatal("RAW wait not attributed to compute stalls")
	}
}

func TestDualIssueAcrossWarps(t *testing.T) {
	cfg := SmallConfig()
	// Each warp issues at most one instruction per cycle; with two warps
	// and IssueWidth=2, both issue in the same cycle.
	body := []isa.Instruction{{Op: isa.OpFAlu, Dst: 1}}
	c, mem := newTestCluster(t, cfg, body, 1, 2)
	cycle(c, mem)
	if c.acc.instructions != 2 {
		t.Fatalf("issued %d instructions in the first cycle, want 2", c.acc.instructions)
	}
	if c.acc.activeCycles != 1 {
		t.Fatalf("activeCycles = %d, want 1", c.acc.activeCycles)
	}
}

func TestSingleWarpIssuesOnePerCycle(t *testing.T) {
	cfg := SmallConfig()
	// One warp with two independent ops still needs two cycles: warps
	// are the unit of issue parallelism.
	body := []isa.Instruction{
		{Op: isa.OpFAlu, Dst: 1},
		{Op: isa.OpIAlu, Dst: 2},
	}
	c, mem := newTestCluster(t, cfg, body, 1, 1)
	cycle(c, mem)
	if c.acc.instructions != 1 {
		t.Fatalf("single warp issued %d in one cycle, want 1", c.acc.instructions)
	}
	cycle(c, mem)
	if c.acc.instructions != 2 {
		t.Fatalf("second op not issued on cycle 2: %d", c.acc.instructions)
	}
}

func TestSFUStructuralLimit(t *testing.T) {
	cfg := SmallConfig() // SFUUnits = 1
	// Two warps, both wanting SFU in the same cycle: only one issues.
	body := []isa.Instruction{{Op: isa.OpSFU, Dst: 1}}
	c, mem := newTestCluster(t, cfg, body, 1, 2)
	cycle(c, mem)
	if c.acc.instructions != 1 {
		t.Fatalf("SFU issued %d in one cycle, want 1 (structural limit)", c.acc.instructions)
	}
	if c.acc.stalls[stallComputeR] == 0 {
		t.Fatal("losing warp not counted as compute-stalled")
	}
	cycle(c, mem)
	if c.acc.instructions != 2 {
		t.Fatalf("second SFU not issued on the next cycle: %d", c.acc.instructions)
	}
}

func TestLSUStructuralLimitIsMemOther(t *testing.T) {
	cfg := SmallConfig() // LSUUnits = 1
	mem1 := isa.MemSpec{Base: 0, FootprintBytes: 1 << 20, StrideBytes: 64, CoalescedLines: 1, Pattern: isa.PatternSequential}
	body := []isa.Instruction{{Op: isa.OpLoadGlobal, Dst: 1, Mem: mem1}}
	c, memsys := newTestCluster(t, cfg, body, 1, 2)
	cycle(c, memsys)
	if c.acc.instructions != 1 {
		t.Fatalf("LSU issued %d in one cycle, want 1", c.acc.instructions)
	}
	if c.acc.stalls[stallMemOtherR] == 0 {
		t.Fatal("LSU-busy stall not attributed to MH\\L")
	}
}

func TestMSHRLimitBlocksLoads(t *testing.T) {
	cfg := SmallConfig()
	cfg.MSHRs = 2
	// Each warp issues one independent long-latency load; with 2 MSHRs
	// only two loads can be outstanding.
	mem1 := isa.MemSpec{Base: 0, FootprintBytes: 1 << 26, StrideBytes: 4096,
		WarpStrideBytes: 1 << 16, CoalescedLines: 1, Pattern: isa.PatternSequential}
	body := []isa.Instruction{{Op: isa.OpLoadGlobal, Dst: 1, Mem: mem1}}
	c, memsys := newTestCluster(t, cfg, body, 1, 4)
	cycle(c, memsys)
	cycle(c, memsys)
	cycle(c, memsys)
	if len(c.outstandingLoads) > 2 {
		t.Fatalf("%d outstanding loads exceed %d MSHRs", len(c.outstandingLoads), cfg.MSHRs)
	}
	if c.acc.stalls[stallMemOtherR] == 0 {
		t.Fatal("MSHR-full stall not attributed to MH\\L")
	}
}

func TestStoreQueueLimit(t *testing.T) {
	cfg := SmallConfig()
	cfg.StoreQueue = 1
	mem1 := isa.MemSpec{Base: 0, FootprintBytes: 1 << 26, StrideBytes: 4096,
		WarpStrideBytes: 1 << 16, CoalescedLines: 1, Pattern: isa.PatternSequential}
	body := []isa.Instruction{{Op: isa.OpStoreGlobal, SrcA: 1, Mem: mem1}}
	c, memsys := newTestCluster(t, cfg, body, 1, 3)
	cycle(c, memsys)
	cycle(c, memsys)
	if len(c.outstandingStores) > 1 {
		t.Fatalf("%d outstanding stores exceed the queue of 1", len(c.outstandingStores))
	}
}

func TestBranchPacing(t *testing.T) {
	cfg := SmallConfig()
	body := []isa.Instruction{
		{Op: isa.OpBranch},
		{Op: isa.OpIAlu, Dst: 1},
	}
	c, mem := newTestCluster(t, cfg, body, 1, 1)
	cycles := stepUntilIssued(t, c, mem, 2, 1000)
	if cycles < cfg.BranchLatency {
		t.Fatalf("post-branch instruction issued after %d cycles, want >= %d (refill)",
			cycles, cfg.BranchLatency)
	}
	if c.acc.stalls[stallControlR] == 0 {
		t.Fatal("branch refill not attributed to control stalls")
	}
}

func TestWAWHazardBlocks(t *testing.T) {
	cfg := SmallConfig()
	// Two writes to r1 back to back: the second must wait for the first
	// (in-order writeback through the scoreboard).
	body := []isa.Instruction{
		{Op: isa.OpSFU, Dst: 1},
		{Op: isa.OpIAlu, Dst: 1},
	}
	c, mem := newTestCluster(t, cfg, body, 1, 1)
	cycle(c, mem)
	if c.acc.instructions != 1 {
		t.Fatalf("both WAW writes issued in one cycle")
	}
	cycles := stepUntilIssued(t, c, mem, 2, 1000)
	if cycles < cfg.SFULatency {
		t.Fatalf("WAW write issued after %d cycles, want >= %d", cycles, cfg.SFULatency)
	}
}

func TestZeroRegisterNeverBlocks(t *testing.T) {
	cfg := SmallConfig()
	// Writes to r0 are discarded: back-to-back r0 writers never conflict
	// through the scoreboard (contrast with TestWAWHazardBlocks).
	body := []isa.Instruction{
		{Op: isa.OpSFU, Dst: 0},
		{Op: isa.OpIAlu, Dst: 0},
	}
	c, mem := newTestCluster(t, cfg, body, 1, 1)
	cycle(c, mem)
	cycle(c, mem)
	if c.acc.instructions != 2 {
		t.Fatalf("r0 writers issued %d after two cycles, want 2 (no WAW)", c.acc.instructions)
	}
}

func TestL1HitFasterThanMiss(t *testing.T) {
	cfg := SmallConfig()
	resident := isa.MemSpec{Base: 0x100, FootprintBytes: 64, StrideBytes: 0, CoalescedLines: 1, Pattern: isa.PatternSequential}
	// load r1; consume r1: iteration 2 hits L1 and completes faster.
	body := []isa.Instruction{
		{Op: isa.OpLoadGlobal, Dst: 1, Mem: resident},
		{Op: isa.OpFAlu, Dst: 2, SrcA: 1},
	}
	c, mem := newTestCluster(t, cfg, body, 2, 1)
	missCycles := stepUntilIssued(t, c, mem, 2, 100000)
	start := c.acc.cycles
	stepUntilIssued(t, c, mem, 4, 100000)
	hitCycles := int(c.acc.cycles - start)
	if hitCycles >= missCycles {
		t.Fatalf("L1 hit iteration (%d cycles) not faster than miss iteration (%d)", hitCycles, missCycles)
	}
	if c.acc.l1ReadHits == 0 || c.acc.l1ReadMisses == 0 {
		t.Fatalf("expected both hits (%d) and misses (%d)", c.acc.l1ReadHits, c.acc.l1ReadMisses)
	}
}

// The tests below pin the event-skipping scheduler's boundaries with exact
// counter values. noLimit lets step skip as far as the warps allow; times
// follow from SmallConfig: an 858 ps period at the default level, and a
// cold global load issued at t done at t + 28 cycles + 180 ns L2 + 1.6 ns
// DRAM service + 320 ns DRAM latency.
const (
	noLimit        = int64(1) << 60
	defaultPeriod  = 858
	coldLoadDonePs = 28*defaultPeriod + 180_000 + 1_600 + 320_000
)

// coldLine is a one-line access that misses L1 and L2; warps are spread far
// apart so no two share a line or a DRAM channel queue.
var coldLine = isa.MemSpec{Base: 0, FootprintBytes: 1 << 26, StrideBytes: 4096,
	WarpStrideBytes: 1 << 16, CoalescedLines: 1, Pattern: isa.PatternSequential}

// ticksBefore returns how many default-period cycles start before ps: the
// index of the first tick at or after ps.
func ticksBefore(ps int64) int64 { return (ps + defaultPeriod - 1) / defaultPeriod }

type wantAcc struct {
	nowPs, cycles, instructions                             int64
	stallMemLoad, stallMemOther, stallCompute, stallControl int64
}

func checkAcc(t *testing.T, when string, c *cluster, want wantAcc) {
	t.Helper()
	got := wantAcc{c.nowPs, c.acc.cycles, c.acc.instructions,
		c.acc.stalls[stallMemLoadR], c.acc.stalls[stallMemOtherR], c.acc.stalls[stallComputeR], c.acc.stalls[stallControlR]}
	if got != want {
		t.Fatalf("%s:\n got %+v\nwant %+v", when, got, want)
	}
}

// TestSkipStopsAtLimit runs over SFU latencies on both sides of the
// scheduler's near/far split: the consumer is refused one cycle after the
// SFU issues, so it sleeps latency-1 cycles, on the timing wheel up to
// wheelTicks-1 of them and in the far set beyond. The second iteration's
// sleep is skipped in one step, which at latency 65 spans the whole wheel.
func TestSkipStopsAtLimit(t *testing.T) {
	for _, lat := range []int64{16, wheelTicks - 1, wheelTicks, wheelTicks + 1} {
		t.Run(fmt.Sprint("SFULatency=", lat), func(t *testing.T) {
			cfg := SmallConfig()
			cfg.SFULatency = int(lat)
			// The SFU result feeds the next op: lat-1 idle cycles after issue.
			body := []isa.Instruction{
				{Op: isa.OpSFU, Dst: 1},
				{Op: isa.OpIAlu, Dst: 2, SrcA: 1},
			}
			c, mem := newTestCluster(t, cfg, body, 2, 1)
			step(c, mem, noLimit)
			checkAcc(t, "SFU issued", c, wantAcc{nowPs: 858, cycles: 1, instructions: 1})

			// A limit between ticks: the cycles at 858..4290 start before
			// 5000, the clock stops on the first tick at or after it.
			step(c, mem, 5000)
			checkAcc(t, "skip to limit", c, wantAcc{nowPs: 6 * 858, cycles: 6, instructions: 1, stallCompute: 5})

			// A limit exactly on a tick is not overshot.
			step(c, mem, 8*858)
			checkAcc(t, "skip to aligned limit", c, wantAcc{nowPs: 8 * 858, cycles: 8, instructions: 1, stallCompute: 7})

			// No limit in the way: stop where the result is ready, then issue.
			step(c, mem, noLimit)
			checkAcc(t, "skip to wake", c, wantAcc{nowPs: lat * 858, cycles: lat, instructions: 1, stallCompute: lat - 1})
			step(c, mem, noLimit)
			checkAcc(t, "dependent issued", c, wantAcc{nowPs: (lat + 1) * 858, cycles: lat + 1, instructions: 2, stallCompute: lat - 1})

			// Second iteration: the SFU issues at lat+1 and its consumer,
			// refused at lat+2, sleeps to 2·lat+1 in a single step.
			step(c, mem, noLimit)
			step(c, mem, noLimit)
			checkAcc(t, "one skip to wake", c, wantAcc{nowPs: (2*lat + 1) * 858, cycles: 2*lat + 1, instructions: 3, stallCompute: 2*lat - 2})
			step(c, mem, noLimit)
			checkAcc(t, "second dependent issued", c, wantAcc{nowPs: (2*lat + 2) * 858, cycles: 2*lat + 2, instructions: 4, stallCompute: 2*lat - 2})
			if !c.done() {
				t.Fatal("cluster not done after its only warp retired")
			}
		})
	}
}

func TestSkipStopsAtEpochEndAndRunUntilTarget(t *testing.T) {
	cfg := tinyConfig()
	sim, err := New(cfg, memoryTestKernel(5000))
	if err != nil {
		t.Fatal(err)
	}
	var epoch0 []EpochStats
	sim.SetObserver(func(s EpochStats) { epoch0 = append(epoch0, s) })

	// Neither the epoch length nor the target is a multiple of the period.
	const target = 12_345_678
	sim.RunUntil(target)

	if len(epoch0) != cfg.Clusters {
		t.Fatalf("observed %d epoch snapshots, want %d", len(epoch0), cfg.Clusters)
	}
	for _, s := range epoch0 {
		if want := ticksBefore(cfg.EpochPs); s.Cycles != want {
			t.Fatalf("cluster %d epoch 0: %d cycles, want %d", s.Cluster, s.Cycles, want)
		}
		if s.StallMemLoad == 0 {
			t.Fatalf("cluster %d never waited on memory: the kernel does not exercise the skip", s.Cluster)
		}
	}
	for i, c := range sim.clusters {
		if want := ticksBefore(target) * defaultPeriod; c.nowPs != want {
			t.Fatalf("cluster %d stopped at %d ps, want first tick at or after target %d", i, c.nowPs, want)
		}
		if want := ticksBefore(target) - ticksBefore(cfg.EpochPs); c.acc.cycles != want {
			t.Fatalf("cluster %d epoch 1: %d cycles so far, want %d", i, c.acc.cycles, want)
		}
	}
}

func TestSkipStopsAtEarliestWakeAndChargesOwnReasons(t *testing.T) {
	cfg := SmallConfig()
	progs := []isa.Program{
		{Iterations: 1, Body: []isa.Instruction{ // control: refill until 8 cycles after the branch
			{Op: isa.OpBranch},
			{Op: isa.OpIAlu, Dst: 1},
		}},
		{Iterations: 1, Body: []isa.Instruction{ // memory: cold load feeds the next op
			{Op: isa.OpLoadGlobal, Dst: 1, Mem: coldLine},
			{Op: isa.OpFAlu, Dst: 2, SrcA: 1},
		}},
		{Iterations: 1, Body: []isa.Instruction{ // compute: SFU result feeds the next op
			{Op: isa.OpSFU, Dst: 1},
			{Op: isa.OpIAlu, Dst: 2, SrcA: 1},
		}},
	}
	c, mem := newTestClusterProgs(t, cfg, progs, 3)

	// t=0: warps 0 and 1 take the two issue slots (branch, load).
	step(c, mem, noLimit)
	// t=858: warp 2 issues its SFU (ready at 858+16 cycles); 1 waits on the
	// load, 0 on the refill.
	step(c, mem, noLimit)
	checkAcc(t, "all three blocked from here", c, wantAcc{nowPs: 2 * 858, cycles: 2, instructions: 3,
		stallMemLoad: 1, stallControl: 1})
	if c.acc.readyNotIssued != 1 {
		t.Fatalf("readyNotIssued = %d, want 1 (warp 2 at t=0)", c.acc.readyNotIssued)
	}

	// Wakes: control 8*858, compute 17*858, memory coldLoadDonePs. The skip
	// ends at the earliest and charges 6 cycles to each warp's own reason.
	step(c, mem, noLimit)
	checkAcc(t, "skip to control wake", c, wantAcc{nowPs: 8 * 858, cycles: 8, instructions: 3,
		stallMemLoad: 7, stallCompute: 6, stallControl: 7})

	// t=8*858: warp 0 issues and retires; the other two are charged once.
	step(c, mem, noLimit)
	checkAcc(t, "post-branch op issued", c, wantAcc{nowPs: 9 * 858, cycles: 9, instructions: 4,
		stallMemLoad: 8, stallCompute: 7, stallControl: 7})

	// Next earliest wake is the SFU result at 17*858: 8 more idle cycles
	// charged to memory and compute, none to the retired warp.
	step(c, mem, noLimit)
	checkAcc(t, "skip to compute wake", c, wantAcc{nowPs: 17 * 858, cycles: 17, instructions: 4,
		stallMemLoad: 16, stallCompute: 15, stallControl: 7})
	step(c, mem, noLimit)
	checkAcc(t, "SFU consumer issued", c, wantAcc{nowPs: 18 * 858, cycles: 18, instructions: 5,
		stallMemLoad: 17, stallCompute: 15, stallControl: 7})

	// Only the load is left: skip to the first tick at or after its data.
	step(c, mem, noLimit)
	loadTick := ticksBefore(coldLoadDonePs)
	checkAcc(t, "skip to load data", c, wantAcc{nowPs: loadTick * 858, cycles: loadTick, instructions: 5,
		stallMemLoad: loadTick - 1, stallCompute: 15, stallControl: 7})
	step(c, mem, noLimit)
	if c.acc.instructions != 6 || !c.done() {
		t.Fatalf("load consumer not issued at the wake tick: %d instructions, done=%v", c.acc.instructions, c.done())
	}
}

func TestReasonChangesFromSrcAToSrcB(t *testing.T) {
	cfg := SmallConfig()
	// The last op waits first on SrcA (SFU result: compute) and, once that
	// is ready, on SrcB (load data: memory).
	body := []isa.Instruction{
		{Op: isa.OpLoadGlobal, Dst: 1, Mem: coldLine},
		{Op: isa.OpSFU, Dst: 2},
		{Op: isa.OpFAlu, Dst: 3, SrcA: 2, SrcB: 1},
	}
	c, mem := newTestCluster(t, cfg, body, 1, 1)
	step(c, mem, noLimit) // load at t=0
	step(c, mem, noLimit) // SFU at t=858, ready at 17*858
	step(c, mem, noLimit)
	checkAcc(t, "waited on SrcA", c, wantAcc{nowPs: 17 * 858, cycles: 17, instructions: 2, stallCompute: 15})

	step(c, mem, noLimit)
	loadTick := ticksBefore(coldLoadDonePs)
	checkAcc(t, "then on SrcB", c, wantAcc{nowPs: loadTick * 858, cycles: loadTick, instructions: 2,
		stallMemLoad: loadTick - 17, stallCompute: 15})
	step(c, mem, noLimit)
	if c.acc.instructions != 3 {
		t.Fatalf("consumer did not issue once both sources were ready: %d instructions", c.acc.instructions)
	}
}

func TestNoSkipOnStructuralStall(t *testing.T) {
	// In each case warp 1 is refused for a reason that other warps or queue
	// drain can lift at any cycle, so every step must be a single cycle.
	cases := []struct {
		name  string
		tweak func(*Config)
		op    isa.Instruction
	}{
		{"MSHR full", func(c *Config) { c.MSHRs = 1 },
			isa.Instruction{Op: isa.OpLoadGlobal, Dst: 1, Mem: coldLine}},
		{"store queue full", func(c *Config) { c.StoreQueue = 1 },
			isa.Instruction{Op: isa.OpStoreGlobal, SrcA: 1, Mem: coldLine}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SmallConfig()
			tc.tweak(&cfg)
			c, mem := newTestCluster(t, cfg, []isa.Instruction{tc.op}, 1, 2)
			step(c, mem, noLimit) // warp 0 issues; warp 1 finds the one LSU taken
			checkAcc(t, "first cycle", c, wantAcc{nowPs: 858, cycles: 1, instructions: 1, stallMemOther: 1})
			for i := int64(1); i <= 50; i++ { // both queues stay full far longer
				step(c, mem, noLimit)
				checkAcc(t, "queue still full", c, wantAcc{nowPs: (i + 1) * 858, cycles: i + 1,
					instructions: 1, stallMemOther: i + 1})
			}
		})
	}

	t.Run("unit limit", func(t *testing.T) {
		// Losing the SFU to another warp must not be remembered: the loser
		// issues the very next cycle.
		c, mem := newTestCluster(t, SmallConfig(), []isa.Instruction{{Op: isa.OpSFU, Dst: 1}}, 1, 2)
		step(c, mem, noLimit)
		checkAcc(t, "first cycle", c, wantAcc{nowPs: 858, cycles: 1, instructions: 1, stallCompute: 1})
		step(c, mem, noLimit)
		checkAcc(t, "second cycle", c, wantAcc{nowPs: 2 * 858, cycles: 2, instructions: 2, stallCompute: 1})
	})
}

func TestStoreQueueDrainsWithoutSkip(t *testing.T) {
	cfg := SmallConfig()
	cfg.StoreQueue = 1
	c, mem := newTestCluster(t, cfg, []isa.Instruction{{Op: isa.OpStoreGlobal, SrcA: 1, Mem: coldLine}}, 1, 2)
	// Warp 0's store leaves the queue at 180 ns L2 + 1.6 ns DRAM service;
	// warp 1 issues on the first tick at or after that, every cycle until
	// then stepped singly and charged to MH\L.
	issueTick := ticksBefore(180_000 + 1_600)
	steps := int64(0)
	for c.acc.instructions < 2 {
		step(c, mem, noLimit)
		steps++
	}
	checkAcc(t, "second store issued", c, wantAcc{nowPs: (issueTick + 1) * 858, cycles: issueTick + 1,
		instructions: 2, stallMemOther: issueTick})
	if steps != issueTick+1 {
		t.Fatalf("%d steps for %d cycles: a structural stall was skipped over", steps, issueTick+1)
	}
}

// TestIVRTransitionSkip changes the level while both warps sleep: warp 1 on
// an SFU result, filed on the timing wheel, that arrives during the
// transition; warp 0 on a cold load, in the far set, that arrives after it.
// Both are re-filed on level 0's clock, and the load's consumer issues on
// the first level-0 tick at or after the data.
func TestIVRTransitionSkip(t *testing.T) {
	cfg := SmallConfig()
	progs := []isa.Program{
		{Iterations: 1, Body: []isa.Instruction{
			{Op: isa.OpLoadGlobal, Dst: 1, Mem: coldLine},
			{Op: isa.OpFAlu, Dst: 2, SrcA: 1},
		}},
		{Iterations: 1, Body: []isa.Instruction{
			{Op: isa.OpSFU, Dst: 1},
			{Op: isa.OpIAlu, Dst: 2, SrcA: 1},
		}},
	}
	c, mem := newTestClusterProgs(t, cfg, progs, 2)
	step(c, mem, noLimit) // t=0: the load and the SFU issue
	cycle(c, mem)         // t=858: both consumers are refused and sleep
	checkAcc(t, "both asleep", c, wantAcc{nowPs: 2 * 858, cycles: 2, instructions: 2, stallMemLoad: 1, stallCompute: 1})

	// Default level to level 0 changes the voltage: a 500 ns stall, counted
	// in level 0's 1464 ps cycles from here.
	const from, period0 = 2 * 858, 1464
	c.setLevel(0, from)

	// A limit inside the transition: 69 cycles start before 100 ns.
	step(c, mem, from+100_000)
	if c.nowPs != from+69*period0 || c.acc.cycles != 2+69 || c.acc.dvfsStall != 69 {
		t.Fatalf("limited stall skip: now=%d cycles=%d dvfsStall=%d, want %d/71/69",
			c.nowPs, c.acc.cycles, c.acc.dvfsStall, from+69*period0)
	}
	// The rest of the transition: 342 cycles start before 500 ns in all.
	step(c, mem, noLimit)
	if c.nowPs != from+342*period0 || c.acc.cycles != 2+342 || c.acc.dvfsStall != 342 {
		t.Fatalf("stall skip: now=%d cycles=%d dvfsStall=%d, want %d/344/342",
			c.nowPs, c.acc.cycles, c.acc.dvfsStall, from+342*period0)
	}
	if c.acc.instructions != 2 {
		t.Fatalf("%d instructions issued during the transition", c.acc.instructions-2)
	}
	// First cycle after the transition: the SFU result arrived during it,
	// so warp 1's consumer issues; warp 0 still waits on its load.
	step(c, mem, noLimit)
	checkAcc(t, "first cycle after the transition", c, wantAcc{nowPs: from + 343*period0, cycles: 2 + 343,
		instructions: 3, stallMemLoad: 2, stallCompute: 1})
	if c.acc.dvfsStall != 342 {
		t.Fatalf("dvfsStall = %d after the transition, want 342", c.acc.dvfsStall)
	}
	// Then a skip to the first level-0 tick at or after the load's data.
	loadTick := int64(coldLoadDonePs-from+period0-1) / period0
	step(c, mem, noLimit)
	checkAcc(t, "skip to load data", c, wantAcc{nowPs: from + loadTick*period0, cycles: 2 + loadTick,
		instructions: 3, stallMemLoad: 2 + loadTick - 343, stallCompute: 1})
	step(c, mem, noLimit)
	if c.acc.instructions != 4 || !c.done() {
		t.Fatalf("load consumer not issued at the wake tick: %d instructions, done=%v", c.acc.instructions, c.done())
	}
}

// TestTicksUntilIsTheCeiling: the reciprocal division in ticksUntil is the
// exact ceiling at every period of both operating-point tables, from one
// picosecond to the largest time there is, on and around multiples of the
// period and at random.
func TestTicksUntilIsTheCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []Config{SmallConfig(), TitanXConfig()} {
		c, _ := newTestCluster(t, cfg, []isa.Instruction{{Op: isa.OpIAlu}}, 1, 1)
		for lvl := 0; lvl < cfg.OPs.Len(); lvl++ {
			c.setLevel(lvl, 0)
			p := c.period
			ds := []int64{1, 2, math.MaxInt64 - 1, math.MaxInt64}
			for _, m := range []int64{1, wheelTicks - 1, wheelTicks, 1 << 20, 1 << 40, math.MaxInt64 / p} {
				ds = append(ds, m*p-1, m*p, m*p+1)
			}
			for range 1000 {
				ds = append(ds, 1+rng.Int63n(64*p), 1+rng.Int63())
			}
			for _, d := range ds {
				if d <= 0 {
					continue
				}
				if got, want := c.ticksUntil(d), (d-1)/p+1; got != want {
					t.Fatalf("period %d: ticksUntil(%d) = %d, want %d", p, d, got, want)
				}
			}
		}
	}
}

// TestGTOVisitsEveryWarpOncePerCycle: with issue slots and ALUs for every
// warp, a warp that is always ready issues exactly once a cycle and the one
// that stalls is counted exactly once — whichever warp is greedy, and even
// though the cycle's issues move the greedy warp. Warps 0, 1 and 3 run
// independent integer ops; warp 2 a dependent FALU chain, so it is the
// greedy warp of some cycles and blocked in others.
func TestGTOVisitsEveryWarpOncePerCycle(t *testing.T) {
	cfg := SmallConfig()
	cfg.Scheduler = SchedGTO
	cfg.IssueWidth, cfg.ALUUnits = 4, 4
	ready := isa.Program{Body: []isa.Instruction{{Op: isa.OpIAlu}}, Iterations: 64}
	chain := isa.Program{Body: []isa.Instruction{{Op: isa.OpFAlu, Dst: 1, SrcA: 1}}, Iterations: 64}
	c, mem := newTestClusterProgs(t, cfg, []isa.Program{ready, ready, chain, ready}, 4)

	// A warp's issue count is its position in its program.
	issued := func(w *warp) int64 { return int64(w.iter*len(w.body) + w.pc) }
	for cyc := 1; cyc <= ready.Iterations; cyc++ {
		var before [4]int64
		for i := range c.warps {
			before[i] = issued(&c.warps[i])
		}
		stalls := c.acc.stalls[stallComputeR]
		cycle(c, mem)
		for i := range c.warps {
			got := issued(&c.warps[i]) - before[i]
			if i == 2 {
				// Issued or stall-counted, once.
				got += c.acc.stalls[stallComputeR] - stalls
			}
			if got != 1 {
				t.Fatalf("cycle %d (greedy warp %d after it): warp %d visited %d times, want 1", cyc, c.greedyWarp, i, got)
			}
		}
	}
	if other := c.acc.stalls[stallMemLoadR] + c.acc.stalls[stallMemOtherR] + c.acc.stalls[stallControlR] + c.acc.readyNotIssued; other != 0 {
		t.Fatalf("%d stalls of a kind no warp here can have", other)
	}
}
