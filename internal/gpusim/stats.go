package gpusim

import (
	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/isa"
	"ssmdvfs/internal/power"
)

// EpochStats is the per-cluster snapshot produced at every epoch boundary.
// It is the raw material from which the 47 performance counters (package
// counters) and all controller inputs are derived.
type EpochStats struct {
	Cluster int
	Epoch   int
	StartPs int64
	EndPs   int64

	// Level and OP are the operating point in force during the epoch.
	Level int
	OP    clockdomain.OperatingPoint

	OpCounts     [isa.NumOps]int64
	Instructions int64
	Cycles       int64
	ActiveCycles int64

	StallMemLoad   int64 // MH: warp waiting on global-load data
	StallMemOther  int64 // MH\L: LSU busy / MSHR full / store queue full
	StallCompute   int64 // waiting on ALU/SFU/shared results or units
	StallControl   int64 // branch pipeline refill
	ReadyNotIssued int64
	DVFSStall      int64

	L1ReadHits      int64
	L1ReadMisses    int64
	L1WriteAccesses int64
	L2Accesses      int64
	L2Hits          int64
	L2Misses        int64
	DRAMLines       int64
	SharedLoads     int64
	Branches        int64

	WarpsActive int // warps not yet finished at epoch end

	DynPowerW    float64
	StaticPowerW float64
	EnergyPJ     float64
}

// IPC returns instructions per cycle for the epoch (0 if no cycles ran).
func (s EpochStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// PowerW returns total average power over the epoch.
func (s EpochStats) PowerW() float64 { return s.DynPowerW + s.StaticPowerW }

// L1ReadMissRate returns the L1 read miss ratio (0 if no reads).
func (s EpochStats) L1ReadMissRate() float64 {
	total := s.L1ReadHits + s.L1ReadMisses
	if total == 0 {
		return 0
	}
	return float64(s.L1ReadMisses) / float64(total)
}

// activity converts the accumulated counts into a power.Activity.
func (a *epochAccum) activity() power.Activity {
	return power.Activity{
		OpCounts:   a.opCounts,
		Cycles:     a.cycles,
		L1Accesses: a.l1ReadHits + a.l1ReadMisses + a.l1WriteAccesses,
		L2Accesses: a.l2Accesses,
		DRAMLines:  a.dramLines,
	}
}

// Result summarizes a completed (or time-limited) simulation run.
type Result struct {
	// ExecTimePs is when the last warp finished (or the time limit).
	ExecTimePs int64
	// EnergyPJ is total chip energy over the run.
	EnergyPJ float64
	// Instructions is the total dynamic instruction count executed.
	Instructions int64
	// Epochs is how many full DVFS epochs elapsed.
	Epochs int
	// Completed reports whether every warp ran to completion within the
	// time limit.
	Completed bool
	// Transitions is the total number of V/f changes across clusters.
	Transitions int
}

// EDP returns the run's energy-delay product in joule-seconds.
func (r Result) EDP() float64 { return power.EDP(r.EnergyPJ, r.ExecTimePs) }
