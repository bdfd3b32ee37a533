package baselines

import (
	"fmt"

	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/gpusim"
)

// PCSTALL is the adapted analytical baseline. The original mechanism
// exploits the linear additivity of frequency-sensitivity metrics: epoch
// time decomposes into a compute component that scales with 1/f and a
// memory component that does not,
//
//	T(f) ≈ T0 · [ (1 − s) · f0/f + s ]
//
// where s, the stall-derived memory-boundedness, is estimated from
// performance counters and smoothed over epochs to exploit GPGPU
// iterative behaviour. As in the paper's adaptation, the objective is
// changed from EDP minimization to choosing the minimum frequency whose
// predicted performance loss stays under the preset.
type PCSTALL struct {
	// Preset is the maximum acceptable performance loss.
	Preset float64
	// Smoothing is the EWMA coefficient applied to the sensitivity
	// estimate across epochs (0 disables smoothing).
	Smoothing float64
	// Table is the operating-point table.
	Table *clockdomain.Table

	// memFrac is the smoothed memory-boundedness per cluster.
	memFrac []float64
	seen    []bool
}

// NewPCSTALL builds the controller for a GPU with the given cluster
// count.
func NewPCSTALL(table *clockdomain.Table, preset float64, clusters int) (*PCSTALL, error) {
	if table == nil {
		return nil, fmt.Errorf("baselines: nil operating-point table")
	}
	if preset < 0 {
		return nil, fmt.Errorf("baselines: preset must be non-negative, got %g", preset)
	}
	if clusters <= 0 {
		return nil, fmt.Errorf("baselines: clusters must be positive, got %d", clusters)
	}
	return &PCSTALL{
		Preset:    preset,
		Smoothing: 0.5,
		Table:     table,
		memFrac:   make([]float64, clusters),
		seen:      make([]bool, clusters),
	}, nil
}

// Name implements gpusim.Controller.
func (p *PCSTALL) Name() string { return "pcstall" }

// sensitivity is memBound of a simulator epoch's counters, the same
// counters counters.FromStats copies into a feature row.
func sensitivity(stats gpusim.EpochStats) float64 {
	return memBound(float64(stats.StallMemLoad), float64(stats.StallMemOther),
		float64(stats.StallCompute), float64(stats.StallControl), float64(stats.Instructions))
}

// Decide implements gpusim.Controller: predict the loss at every level
// from the sensitivity model and pick the slowest level under the preset.
func (p *PCSTALL) Decide(stats gpusim.EpochStats) int {
	s := sensitivity(stats)
	c := stats.Cluster
	if p.seen[c] && p.Smoothing > 0 {
		s = p.Smoothing*p.memFrac[c] + (1-p.Smoothing)*s
	}
	p.memFrac[c] = s
	p.seen[c] = true
	return slowestWithin(p.Table, s, p.Preset)
}

var _ gpusim.Controller = (*PCSTALL)(nil)
