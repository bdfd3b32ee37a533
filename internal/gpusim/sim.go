package gpusim

import (
	"fmt"
	"math"
	"math/bits"
)

// Controller decides the operating-point level each cluster runs in the
// next epoch, given that cluster's just-completed epoch statistics. It is
// consulted once per active cluster per epoch boundary, in ascending
// cluster order (so stateful controllers see a deterministic call
// sequence).
//
// The EpochStats it is handed, by value, are all an implementation may know
// of the run, and the level it returns all it may change: it must not hold
// or read the Simulator. Two runs of one kernel whose controllers have
// returned the same levels so far are then the same simulation, which is
// what lets a caller drive several controllers over one simulator through
// CloseEpoch and OpenEpoch and Clone it only where their answers part
// (experiments.RunFig4 does).
//
// A nil controller leaves every cluster at the level it is at: the table's
// default, unless ForceLevel moved it.
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

	// snaps is CloseEpoch's per-cluster scratch, reused every epoch.
	// Controllers and observers receive copies. closed is set between
	// CloseEpoch and OpenEpoch, the only time snaps is still owed to the
	// observer and so the only time a Clone takes a copy of it.
	snaps  []EpochStats
	closed bool
	// levels is RunUntil's scratch for the controller's answers.
	levels []int
}

// isaKernelRef is what the simulator remembers of its kernel: the name.
// Each warp holds its program's iteration count and body slice; nothing
// writes through a body.
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
	if kernel.WarpsPerCluster > maxClusterWarps {
		return nil, fmt.Errorf("gpusim: kernel %q has %d warps per cluster, a cluster runs at most %d",
			kernel.Name, kernel.WarpsPerCluster, maxClusterWarps)
	}
	s := &Simulator{
		cfg:    cfg,
		kernel: isaKernelRef{name: kernel.Name},
		mem:    newMemSystem(cfg),
	}
	s.clusters = make([]*cluster, cfg.Clusters)
	for i := range s.clusters {
		s.clusters[i] = newCluster(i, &s.cfg, &kernel)
	}
	return s, nil
}

// SetController installs the DVFS mechanism consulted at epoch boundaries.
func (s *Simulator) SetController(c Controller) { s.controller = c }

// SetObserver installs a callback invoked with every cluster's epoch
// snapshot at each boundary (after the controller has been consulted).
func (s *Simulator) SetObserver(o EpochObserver) { s.observer = o }

// NowPs returns the simulation time: the earliest next tick over active
// clusters, or the last finish time when all clusters are done.
func (s *Simulator) NowPs() int64 {
	minT := int64(math.MaxInt64)
	active := false
	for _, c := range s.clusters {
		if c.done() {
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
		if !c.done() {
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

// ForceLevel pins every cluster to the given level immediately (used to
// run whole programs at a fixed operating point, e.g. for data
// generation's frequency-scaling window). The IVR transition cost applies.
func (s *Simulator) ForceLevel(level int) {
	now := s.NowPs()
	for _, c := range s.clusters {
		c.setLevel(level, now)
		c.epochLevel = c.domain.Level()
	}
}

// epochEndPs returns the wall-clock end of the current epoch.
func (s *Simulator) epochEndPs() int64 {
	return int64(s.epochIdx+1) * s.cfg.EpochPs
}

// CloseEpoch runs to the end of the current epoch and closes it: it
// snapshots every cluster's accumulated counters, charges the epoch's
// energy and resets the accumulators, consulting neither controller nor
// observer. It returns the per-cluster statistics, indexed by cluster, and
// true; the slice is the simulator's scratch, valid until the next
// CloseEpoch. When every warp finishes first, or simulated time reaches
// limitPs before every active cluster has reached the boundary, nothing is
// closed and it returns false.
//
// Every CloseEpoch is answered by one OpenEpoch before the simulator runs
// again. A Clone taken in between is exact: it continues from the same
// boundary and owes its own OpenEpoch.
func (s *Simulator) CloseEpoch(limitPs int64) ([]EpochStats, bool) {
	if s.closed {
		panic("gpusim: CloseEpoch on a closed epoch; OpenEpoch first")
	}
	end := s.epochEndPs()
	stepTo := min(end, limitPs)
	for {
		// The cluster first in (time, cluster) order, by its pending
		// traffic's time when it has any and by its next tick otherwise, and
		// the one after it.
		next, now := 0, int64(math.MaxInt64)
		second, secondIdx := int64(math.MaxInt64), 0
		for i, c := range s.clusters {
			t := c.nextEventPs()
			if t < now {
				second, secondIdx = now, next
				next, now = i, t
			} else if t < second {
				second, secondIdx = t, i
			}
		}
		if now == math.MaxInt64 {
			return nil, false // all finished
		}
		if now >= end {
			if end > limitPs {
				return nil, false
			}
			break
		}
		if now >= limitPs {
			return nil, false
		}
		c := s.clusters[next]
		if len(c.pending) > 0 {
			c.resolve(s.mem)
		}
		// A cycle without L2/DRAM traffic touches only its own cluster and
		// commutes with every other cluster's cycles, so c runs on to stepTo
		// or its end, performing its traffic as it goes, until some traffic
		// is not first in (time, cluster) order: another cluster may still
		// make an access before it.
		for !c.done() && c.nowPs < stepTo {
			c.step(stepTo)
			if len(c.pending) == 0 {
				continue
			}
			if c.pendingPs > second || c.pendingPs == second && next > secondIdx {
				break
			}
			c.resolve(s.mem)
		}
		if c.done() && c.lastFinishPs > s.lastFinishPs {
			s.lastFinishPs = c.lastFinishPs
		}
	}

	start := int64(s.epochIdx) * s.cfg.EpochPs
	if s.snaps == nil {
		s.snaps = make([]EpochStats, len(s.clusters))
	}
	for i, c := range s.clusters {
		op := s.cfg.OPs.Point(c.epochLevel)
		act := c.acc.activity()
		dynW, statW := s.cfg.Power.EpochPowerW(act, op, s.cfg.EpochPs)
		energy := s.cfg.Power.EpochEnergyPJ(act, op, s.cfg.EpochPs)
		s.totalEnergyPJ += energy
		s.totalInstr += c.acc.instructions

		s.snaps[i] = EpochStats{
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
			StallMemLoad:    c.acc.stalls[stallMemLoadR],
			StallMemOther:   c.acc.stalls[stallMemOtherR],
			StallCompute:    c.acc.stalls[stallComputeR],
			StallControl:    c.acc.stalls[stallControlR],
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
			WarpsActive:     bits.OnesCount64(c.live),
			DynPowerW:       dynW,
			StaticPowerW:    statW,
			EnergyPJ:        energy,
		}
		c.acc = epochAccum{}
	}
	s.closed = true
	return s.snaps, true
}

// OpenEpoch opens the next epoch at the boundary CloseEpoch stopped on:
// cluster i moves to levels[i], clamped to the table, paying the IVR
// transition if that is a change; then the observer sees the closed epoch's
// statistics. A finished cluster (WarpsActive == 0 in its statistics) takes
// no level and its entry is ignored; nil levels leave every cluster where
// it is.
func (s *Simulator) OpenEpoch(levels []int) {
	if !s.closed {
		panic("gpusim: OpenEpoch without a CloseEpoch")
	}
	end := s.epochEndPs()
	for i, c := range s.clusters {
		if levels != nil && !c.done() {
			c.setLevel(levels[i], end)
		}
		c.epochLevel = c.domain.Level()
	}
	if s.observer != nil {
		for _, snap := range s.snaps {
			s.observer(snap)
		}
	}
	s.epochIdx++
	s.closed = false
}

// RunUntil advances the simulation until simulated time reaches targetPs
// or every warp completes. Every epoch boundary reached on the way is
// closed, put to the controller — one Decide per active cluster, in
// ascending cluster order — and opened at the levels it answers.
func (s *Simulator) RunUntil(targetPs int64) {
	for {
		snaps, ok := s.CloseEpoch(targetPs)
		if !ok {
			return
		}
		if s.controller == nil {
			s.OpenEpoch(nil)
			continue
		}
		if s.levels == nil {
			s.levels = make([]int, len(s.clusters))
		}
		for i, c := range s.clusters {
			if !c.done() {
				s.levels[i] = s.controller.Decide(snaps[i])
			}
		}
		s.OpenEpoch(s.levels)
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
		closed:        s.closed,
	}
	if s.closed {
		cp.snaps = append([]EpochStats(nil), s.snaps...)
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
