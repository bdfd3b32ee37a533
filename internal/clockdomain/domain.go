package clockdomain

import "fmt"

// IVRModel models an integrated voltage regulator's V/f transition cost.
// Modern IVRs (Toprak-Deniz'14, Kim'15, Keller'16) switch in well under a
// microsecond; the default model charges a fixed settle time per voltage
// step plus a smaller relock time for frequency-only changes.
type IVRModel struct {
	// VoltageSettlePs is the stall charged when the voltage changes.
	VoltageSettlePs int64
	// FrequencyRelockPs is the stall charged when only frequency changes.
	FrequencyRelockPs int64
}

// DefaultIVR returns a sub-microsecond IVR: 500 ns voltage settle,
// 100 ns PLL/DFS relock.
func DefaultIVR() IVRModel {
	return IVRModel{VoltageSettlePs: 500_000, FrequencyRelockPs: 100_000}
}

// TransitionPs returns the stall time in picoseconds for moving between
// two operating points. Identical points cost nothing.
func (m IVRModel) TransitionPs(from, to OperatingPoint) int64 {
	if from == to {
		return 0
	}
	if from.VoltageV != to.VoltageV {
		return m.VoltageSettlePs
	}
	return m.FrequencyRelockPs
}

// Domain is a per-cluster clock domain: a current operating-point level
// within a Table, plus accounting for DVFS transitions driven through an
// IVR. Domains are not safe for concurrent use; each simulated cluster
// owns one.
type Domain struct {
	table *Table
	ivr   IVRModel

	level int
	// periodPs is the clock period at level, kept here because the
	// simulator reads it every cycle.
	periodPs int64
	// stallUntilPs is the absolute simulation time before which the domain
	// is stalled completing a V/f transition.
	stallUntilPs int64

	transitions int
}

// NewDomain creates a clock domain running at the table's default level.
func NewDomain(table *Table, ivr IVRModel) *Domain {
	level := table.Default()
	return &Domain{table: table, ivr: ivr, level: level, periodPs: table.Point(level).PeriodPs()}
}

// Level returns the current operating-point level.
func (d *Domain) Level() int { return d.level }

// Point returns the current operating point.
func (d *Domain) Point() OperatingPoint { return d.table.Point(d.level) }

// PeriodPs returns the current clock period in picoseconds.
func (d *Domain) PeriodPs() int64 { return d.periodPs }

// Transitions returns how many V/f changes the domain has performed.
func (d *Domain) Transitions() int { return d.transitions }

// SetLevel requests a transition to the given level at absolute time
// nowPs. The level is clamped to the table range. If it differs from the
// current level the domain stalls for the IVR transition time. It reports
// whether a transition actually occurred.
func (d *Domain) SetLevel(level int, nowPs int64) bool {
	level = d.table.Clamp(level)
	if level == d.level {
		return false
	}
	from := d.table.Point(d.level)
	to := d.table.Point(level)
	stall := d.ivr.TransitionPs(from, to)
	d.level = level
	d.periodPs = to.PeriodPs()
	d.transitions++
	if until := nowPs + stall; until > d.stallUntilPs {
		d.stallUntilPs = until
	}
	return true
}

// Stalled reports whether the domain is mid-transition at time nowPs.
func (d *Domain) Stalled(nowPs int64) bool { return nowPs < d.stallUntilPs }

// StallUntilPs returns the absolute time at which the current transition
// (if any) completes.
func (d *Domain) StallUntilPs() int64 { return d.stallUntilPs }

func (d *Domain) String() string {
	return fmt.Sprintf("domain{level=%d %v transitions=%d}", d.level, d.Point(), d.transitions)
}
