// Package gpusim implements a deterministic cycle-level multi-cluster
// SIMT GPU simulator, the substrate the paper evaluates on (a GPGPU-Sim
// substitute). Each cluster owns an independent clock domain so DVFS can
// be applied per cluster; core cycles stretch with frequency while the
// L2/DRAM side is timed in wall-clock picoseconds, which is exactly the
// mechanism that gives real GPUs their workload-dependent frequency
// sensitivity.
package gpusim

import (
	"fmt"

	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/power"
)

// CacheConfig sizes a set-associative cache.
type CacheConfig struct {
	Sets      int
	Ways      int
	LineBytes int
}

// Validate checks the geometry: sets must be a power of two so line
// addresses index sets with a mask.
func (c CacheConfig) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("gpusim: cache sets must be a positive power of two, got %d", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("gpusim: cache ways must be positive, got %d", c.Ways)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("gpusim: cache line bytes must be a positive power of two, got %d", c.LineBytes)
	}
	return nil
}

// SchedulerPolicy selects how the warp scheduler orders candidates each
// cycle.
type SchedulerPolicy uint8

const (
	// SchedLRR is loose round-robin: the start position rotates after
	// every cycle that issued.
	SchedLRR SchedulerPolicy = iota
	// SchedGTO is greedy-then-oldest: keep issuing from the last
	// successful warp until it stalls, then fall back to ascending warp
	// age. GTO typically improves latency hiding on memory-bound kernels
	// by letting one warp run ahead and queue its misses early.
	SchedGTO
)

func (p SchedulerPolicy) String() string {
	switch p {
	case SchedLRR:
		return "lrr"
	case SchedGTO:
		return "gto"
	default:
		return fmt.Sprintf("scheduler(%d)", uint8(p))
	}
}

// Config describes the simulated GPU. The zero value is not usable; start
// from TitanXConfig or SmallConfig.
type Config struct {
	// Clusters is the number of SM clusters (each its own clock domain).
	Clusters int
	// Scheduler is the warp scheduling policy (default loose round-robin).
	Scheduler SchedulerPolicy
	// IssueWidth is how many warps may issue one instruction per cycle.
	IssueWidth int
	// ALUUnits / SFUUnits / LSUUnits bound per-cycle issues per class.
	ALUUnits int
	SFUUnits int
	LSUUnits int

	// Instruction latencies in core cycles (they scale with frequency).
	IAluLatency   int
	FAluLatency   int
	SFULatency    int
	SharedLatency int
	BranchLatency int
	L1HitCycles   int

	// L1 is private per cluster; L2 is shared by all clusters.
	L1 CacheConfig
	L2 CacheConfig

	// Wall-clock memory timing (frequency independent).
	L2LatencyPs   int64
	DRAMLatencyPs int64
	// DRAMLineServicePs is the bandwidth cost of one line per channel:
	// a channel can start a new line transfer every DRAMLineServicePs.
	DRAMLineServicePs int64
	DRAMChannels      int

	// MSHRs is the per-cluster limit on outstanding load misses.
	MSHRs int
	// StoreQueue is the per-cluster limit on outstanding stores.
	StoreQueue int

	// EpochPs is the DVFS decision period (the paper uses 10 µs).
	EpochPs int64

	// OPs is the operating-point table; IVR models transition cost.
	OPs *clockdomain.Table
	IVR clockdomain.IVRModel

	// Power is the activity-based power model.
	Power power.Model
}

// TitanXConfig returns the full 24-cluster configuration matching the
// paper's GTX Titan X setup with 10 µs DVFS epochs.
func TitanXConfig() Config {
	return Config{
		Clusters:   24,
		IssueWidth: 2,
		ALUUnits:   2,
		SFUUnits:   1,
		LSUUnits:   1,

		IAluLatency:   4,
		FAluLatency:   6,
		SFULatency:    16,
		SharedLatency: 24,
		BranchLatency: 8,
		L1HitCycles:   28,

		L1: CacheConfig{Sets: 64, Ways: 4, LineBytes: 64},    // 16 KiB
		L2: CacheConfig{Sets: 2048, Ways: 16, LineBytes: 64}, // 2 MiB

		L2LatencyPs:       180_000, // 180 ns
		DRAMLatencyPs:     320_000, // 320 ns
		DRAMLineServicePs: 1_600,   // 64 B / 1.6 ns ≈ 40 GB/s per channel
		DRAMChannels:      8,

		MSHRs:      32,
		StoreQueue: 16,

		EpochPs: 10_000_000, // 10 µs

		OPs: clockdomain.TitanX(),
		IVR: clockdomain.DefaultIVR(),

		Power: power.Default(),
	}
}

// SmallConfig returns a 4-cluster configuration with the same relative
// timing, for unit tests and fast experiments.
func SmallConfig() Config {
	c := TitanXConfig()
	c.Clusters = 4
	c.L2 = CacheConfig{Sets: 512, Ways: 8, LineBytes: 64} // 256 KiB
	c.DRAMChannels = 4
	return c
}

// Validate checks the whole configuration for consistency.
func (c Config) Validate() error {
	if c.Clusters <= 0 {
		return fmt.Errorf("gpusim: Clusters must be positive, got %d", c.Clusters)
	}
	if c.Scheduler != SchedLRR && c.Scheduler != SchedGTO {
		return fmt.Errorf("gpusim: unknown scheduler policy %d", c.Scheduler)
	}
	if c.IssueWidth <= 0 || c.ALUUnits <= 0 || c.SFUUnits <= 0 || c.LSUUnits <= 0 {
		return fmt.Errorf("gpusim: issue/unit widths must be positive")
	}
	for _, l := range []int{c.IAluLatency, c.FAluLatency, c.SFULatency, c.SharedLatency, c.BranchLatency, c.L1HitCycles} {
		if l <= 0 {
			return fmt.Errorf("gpusim: instruction latencies must be positive")
		}
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("gpusim: L1: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("gpusim: L2: %w", err)
	}
	if c.L1.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("gpusim: L1 and L2 line sizes must match (%d vs %d)", c.L1.LineBytes, c.L2.LineBytes)
	}
	if c.L2LatencyPs <= 0 || c.DRAMLatencyPs <= 0 || c.DRAMLineServicePs <= 0 {
		return fmt.Errorf("gpusim: memory latencies must be positive")
	}
	if c.DRAMChannels <= 0 {
		return fmt.Errorf("gpusim: DRAMChannels must be positive, got %d", c.DRAMChannels)
	}
	if c.MSHRs <= 0 || c.StoreQueue <= 0 {
		return fmt.Errorf("gpusim: MSHRs and StoreQueue must be positive")
	}
	if c.EpochPs <= 0 {
		return fmt.Errorf("gpusim: EpochPs must be positive, got %d", c.EpochPs)
	}
	if c.OPs == nil {
		return fmt.Errorf("gpusim: OPs table is nil")
	}
	if err := c.Power.Validate(); err != nil {
		return err
	}
	return nil
}
