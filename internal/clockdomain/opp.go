// Package clockdomain defines voltage/frequency operating points,
// per-cluster clock domains, and the integrated-voltage-regulator (IVR)
// transition model used by microsecond-scale DVFS.
//
// The operating-point table follows the six V/f points the paper adopts
// from Guerreiro et al. (HPCA'18) for the Nvidia GeForce GTX Titan X:
// (1.0 V, 683 MHz) up to (1.155 V, 1165 MHz).
package clockdomain

import (
	"fmt"
	"sort"
)

// OperatingPoint is a single voltage/frequency pair a clock domain can run
// at. Frequency is stored in Hz and voltage in volts.
type OperatingPoint struct {
	VoltageV    float64
	FrequencyHz float64
}

// PeriodPs returns the clock period of the operating point in integer
// picoseconds. The simulator keeps all time in integer picoseconds so that
// multi-clock-domain execution is exactly deterministic.
func (op OperatingPoint) PeriodPs() int64 {
	return int64(1e12 / op.FrequencyHz)
}

func (op OperatingPoint) String() string {
	return fmt.Sprintf("(%.3fV, %.0fMHz)", op.VoltageV, op.FrequencyHz/1e6)
}

// Table is an immutable, ascending-frequency list of operating points.
// Index 0 is the slowest point; index len-1 the fastest.
type Table struct {
	points []OperatingPoint
}

// NewTable builds a Table from the given points, sorting them by ascending
// frequency. It returns an error if fewer than two points are supplied, if
// any frequency or voltage is non-positive, or if voltage is not
// non-decreasing with frequency (a physically inconsistent table).
func NewTable(points []OperatingPoint) (*Table, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("clockdomain: table needs at least 2 operating points, got %d", len(points))
	}
	ps := make([]OperatingPoint, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].FrequencyHz < ps[j].FrequencyHz })
	for i, p := range ps {
		if p.FrequencyHz <= 0 || p.VoltageV <= 0 {
			return nil, fmt.Errorf("clockdomain: operating point %d has non-positive V/f: %v", i, p)
		}
		if i > 0 && p.VoltageV < ps[i-1].VoltageV {
			return nil, fmt.Errorf("clockdomain: voltage must be non-decreasing with frequency: %v after %v", p, ps[i-1])
		}
	}
	return &Table{points: ps}, nil
}

// TitanX returns the six-point GTX Titan X table used throughout the paper.
func TitanX() *Table {
	t, err := NewTable([]OperatingPoint{
		{VoltageV: 1.000, FrequencyHz: 683e6},
		{VoltageV: 1.000, FrequencyHz: 780e6},
		{VoltageV: 1.000, FrequencyHz: 878e6},
		{VoltageV: 1.000, FrequencyHz: 975e6},
		{VoltageV: 1.100, FrequencyHz: 1100e6},
		{VoltageV: 1.155, FrequencyHz: 1165e6},
	})
	if err != nil {
		panic("clockdomain: TitanX table is invalid: " + err.Error())
	}
	return t
}

// Len returns the number of operating points.
func (t *Table) Len() int { return len(t.points) }

// Point returns the operating point at level i (0 = slowest).
// It panics if i is out of range, mirroring slice semantics.
func (t *Table) Point(i int) OperatingPoint { return t.points[i] }

// Default returns the index of the default (fastest) operating point.
func (t *Table) Default() int { return len(t.points) - 1 }

// Clamp returns i clamped into the valid level range [0, Len()-1].
func (t *Table) Clamp(i int) int {
	if i < 0 {
		return 0
	}
	if i >= len(t.points) {
		return len(t.points) - 1
	}
	return i
}
