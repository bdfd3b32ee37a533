package gpusim

import (
	"fmt"
	"math"
)

// Controller decides the operating-point level each cluster runs in the
// next epoch, given that cluster's just-completed epoch statistics. It is
// consulted once per cluster per epoch boundary, in ascending cluster
// order (so stateful controllers see a deterministic call sequence).
//
// A nil controller leaves every cluster at the table's default level.
type Controller interface {
	// Name identifies the mechanism in reports.
	Name() string
	// Decide returns the OP level for the cluster's next epoch.
	Decide(stats EpochStats) int
}

// EpochObserver receives every epoch snapshot; used by the data-generation
// pipeline and experiment harness to record traces without influencing
// decisions.
type EpochObserver func(stats EpochStats)

// Simulator drives a kernel over the configured GPU. Create one with New,
// optionally attach a Controller, then Run.
type Simulator struct {
	cfg    Config
	kernel isaKernelRef

	mem      *memSystem
	clusters []*cluster

	controller Controller
	observer   EpochObserver

	epochIdx      int
	totalEnergyPJ float64
	totalInstr    int64
	lastFinishPs  int64

	// snaps is finalizeEpoch's per-cluster scratch, reused every epoch and
	// never shared with a Clone. Controllers and observers receive copies.
	snaps []EpochStats
}

// isaKernelRef is what the simulator remembers of its kernel: the name.
// Warps point into New's private copy of the programs, which nothing
// mutates afterwards.
type isaKernelRef struct {
	name string
}

// New builds a simulator for the kernel under the given configuration.
func New(cfg Config, kernel Kernel) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := kernel.Validate(); err != nil {
		return nil, err
	}
	// Copy the kernel so callers cannot mutate shared program state.
	k := kernel
	k.Programs = append([]Program(nil), kernel.Programs...)

	s := &Simulator{
		cfg:    cfg,
		kernel: isaKernelRef{name: k.Name},
		mem:    newMemSystem(cfg),
	}
	s.clusters = make([]*cluster, cfg.Clusters)
	for i := range s.clusters {
		s.clusters[i] = newCluster(i, &s.cfg, &k)
	}
	return s, nil
}

// SetController installs the DVFS mechanism consulted at epoch boundaries.
func (s *Simulator) SetController(c Controller) { s.controller = c }

// SetObserver installs a callback invoked with every cluster's epoch
// snapshot at each boundary (after the controller has been consulted).
func (s *Simulator) SetObserver(o EpochObserver) { s.observer = o }

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// NowPs returns the simulation time: the earliest next tick over active
// clusters, or the last finish time when all clusters are done.
func (s *Simulator) NowPs() int64 {
	minT := int64(math.MaxInt64)
	active := false
	for _, c := range s.clusters {
		if c.done {
			continue
		}
		active = true
		if c.nowPs < minT {
			minT = c.nowPs
		}
	}
	if !active {
		return s.lastFinishPs
	}
	return minT
}

// Done reports whether every warp on every cluster has finished.
func (s *Simulator) Done() bool {
	for _, c := range s.clusters {
		if !c.done {
			return false
		}
	}
	return true
}

// TotalInstructions returns instructions executed so far (finalized epochs
// plus the in-flight epoch).
func (s *Simulator) TotalInstructions() int64 {
	t := s.totalInstr
	for _, c := range s.clusters {
		t += c.acc.instructions
	}
	return t
}

// ClusterLevel returns cluster i's current operating-point level.
func (s *Simulator) ClusterLevel(i int) int { return s.clusters[i].domain.Level() }

// ForceLevel pins every cluster to the given level immediately (used to
// run whole programs at a fixed operating point, e.g. for data
// generation's frequency-scaling window). The IVR transition cost applies.
func (s *Simulator) ForceLevel(level int) {
	now := s.NowPs()
	for _, c := range s.clusters {
		c.domain.SetLevel(level, now)
		c.epochLevel = c.domain.Level()
	}
}

// epochEndPs returns the wall-clock end of the current epoch.
func (s *Simulator) epochEndPs() int64 {
	return int64(s.epochIdx+1) * s.cfg.EpochPs
}

// finalizeEpoch snapshots every cluster's accumulated counters, charges
// energy, consults the controller, and opens the next epoch.
func (s *Simulator) finalizeEpoch() {
	start := int64(s.epochIdx) * s.cfg.EpochPs
	end := s.epochEndPs()

	if s.snaps == nil {
		s.snaps = make([]EpochStats, len(s.clusters))
	}
	snaps := s.snaps
	for i, c := range s.clusters {
		op := s.cfg.OPs.Point(c.epochLevel)
		act := c.acc.activity()
		dynW, statW := s.cfg.Power.EpochPowerW(act, op, s.cfg.EpochPs)
		energy := s.cfg.Power.EpochEnergyPJ(act, op, s.cfg.EpochPs)
		s.totalEnergyPJ += energy
		s.totalInstr += c.acc.instructions

		snaps[i] = EpochStats{
			Cluster:         i,
			Epoch:           s.epochIdx,
			StartPs:         start,
			EndPs:           end,
			Level:           c.epochLevel,
			OP:              op,
			OpCounts:        c.acc.opCounts,
			Instructions:    c.acc.instructions,
			Cycles:          c.acc.cycles,
			ActiveCycles:    c.acc.activeCycles,
			StallMemLoad:    c.acc.stallMemLoad,
			StallMemOther:   c.acc.stallMemOther,
			StallCompute:    c.acc.stallCompute,
			StallControl:    c.acc.stallControl,
			ReadyNotIssued:  c.acc.readyNotIssued,
			DVFSStall:       c.acc.dvfsStall,
			L1ReadHits:      c.acc.l1ReadHits,
			L1ReadMisses:    c.acc.l1ReadMisses,
			L1WriteAccesses: c.acc.l1WriteAccesses,
			L2Accesses:      c.acc.l2Accesses,
			L2Hits:          c.acc.l2Hits,
			L2Misses:        c.acc.l2Misses,
			DRAMLines:       c.acc.dramLines,
			SharedLoads:     c.acc.sharedLoads,
			Branches:        c.acc.branches,
			WarpsActive:     len(c.warps) - c.finishedWarps,
			DynPowerW:       dynW,
			StaticPowerW:    statW,
			EnergyPJ:        energy,
		}
		c.acc = epochAccum{}
	}

	for i, c := range s.clusters {
		if s.controller != nil && !c.done {
			level := s.cfg.OPs.Clamp(s.controller.Decide(snaps[i]))
			c.domain.SetLevel(level, end)
		}
		c.epochLevel = c.domain.Level()
	}
	if s.observer != nil {
		for _, snap := range snaps {
			s.observer(snap)
		}
	}
	s.epochIdx++
}

// RunUntil advances the simulation until simulated time reaches targetPs
// or every warp completes. Epoch boundaries strictly before targetPs are
// finalized.
func (s *Simulator) RunUntil(targetPs int64) {
	for {
		// Find the active cluster with the earliest next tick.
		var next *cluster
		for _, c := range s.clusters {
			if c.done {
				continue
			}
			if next == nil || c.nowPs < next.nowPs {
				next = c
			}
		}
		if next == nil {
			return // all finished
		}
		end := s.epochEndPs()
		if next.nowPs >= end {
			if end > targetPs {
				return
			}
			s.finalizeEpoch()
			continue
		}
		if next.nowPs >= targetPs {
			return
		}
		next.step(s.mem, min(end, targetPs))
		if next.done && next.lastFinishPs > s.lastFinishPs {
			s.lastFinishPs = next.lastFinishPs
		}
	}
}

// DefaultMaxRunPs is the bound callers pass to Run when they have none of
// their own: five simulated seconds, orders of magnitude past the longest
// kernel in the suite, so reaching it means the run is stuck.
const DefaultMaxRunPs int64 = 5_000_000_000_000

// Run executes until completion or maxPs, whichever comes first, and
// returns the run summary. The final partial epoch's energy is charged
// pro-rata for the time actually simulated.
func (s *Simulator) Run(maxPs int64) Result {
	s.RunUntil(maxPs)

	completed := s.Done()
	execPs := s.lastFinishPs
	if !completed {
		execPs = maxPs
	}

	// Charge the unfinalized tail epoch.
	tailStart := int64(s.epochIdx) * s.cfg.EpochPs
	tailPs := execPs - tailStart
	if tailPs > 0 {
		for _, c := range s.clusters {
			op := s.cfg.OPs.Point(c.epochLevel)
			energy := s.cfg.Power.EpochEnergyPJ(c.acc.activity(), op, tailPs)
			s.totalEnergyPJ += energy
			s.totalInstr += c.acc.instructions
			c.acc = epochAccum{}
		}
	}

	transitions := 0
	for _, c := range s.clusters {
		transitions += c.domain.Transitions()
	}
	return Result{
		ExecTimePs:   execPs,
		EnergyPJ:     s.totalEnergyPJ,
		Instructions: s.totalInstr,
		Epochs:       s.epochIdx,
		Completed:    completed,
		Transitions:  transitions,
	}
}

// Clone deep-copies the entire simulator state, enabling the paper's
// data-generation methodology: snapshot at a breakpoint, then replay the
// continuation once per operating point.
func (s *Simulator) Clone() *Simulator {
	cp := &Simulator{
		cfg:           s.cfg,
		kernel:        s.kernel,
		mem:           s.mem.clone(),
		controller:    s.controller,
		observer:      s.observer,
		epochIdx:      s.epochIdx,
		totalEnergyPJ: s.totalEnergyPJ,
		totalInstr:    s.totalInstr,
		lastFinishPs:  s.lastFinishPs,
	}
	cp.clusters = make([]*cluster, len(s.clusters))
	for i, c := range s.clusters {
		cp.clusters[i] = c.clone(&cp.cfg)
	}
	return cp
}

func (s *Simulator) String() string {
	return fmt.Sprintf("sim{kernel=%s clusters=%d t=%dps epoch=%d}",
		s.kernel.name, len(s.clusters), s.NowPs(), s.epochIdx)
}
