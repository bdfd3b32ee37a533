package baselines

import (
	"math"

	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/counters"
)

// This file adapts PCSTALL to the serving path, where no EpochStats exist
// — only the raw 47-counter feature row a client sent. The functions are
// stateless (no cross-epoch smoothing) and allocation-free, so any number
// of serving workers can call them concurrently; they are the guaranteed
// analytical fallback behind the ML decision path: whatever happens to
// the model, a safe operating point can always be computed from the row,
// and for garbage rows the answer degrades to the table's default
// (fastest, zero-performance-loss) point.

// FallbackColumns is the mask (bit i: counters.Def(i)) of the columns of a
// feature row the analytical fallback reads: RowSensitivity's four stall
// counters and the instruction count fallbackPredict scales. A serving row
// that carries these can always be answered.
const FallbackColumns uint64 = 1<<counters.IdxMH | 1<<counters.IdxMHNL | 1<<counters.IdxInstr |
	1<<counters.IdxStallCompute | 1<<counters.IdxStallControl

// Slowdown is PCSTALL's linear performance model: the factor by which an
// epoch of memory-boundedness s stretches when the clock goes from f0 to
// f — the frequency-scalable share grows by f0/f, the memory share does
// not move. Predicted loss is Slowdown − 1.
func Slowdown(s, f0, f float64) float64 { return (1-s)*(f0/f) + s }

// slowestWithin is PCSTALL's level search: the slowest level of t whose
// predicted loss at memory-boundedness s, against the default level's
// clock, stays within preset; the default level when none does.
func slowestWithin(t *clockdomain.Table, s, preset float64) int {
	fDefault := t.Point(t.Default()).FrequencyHz
	for level := 0; level < t.Len(); level++ {
		if Slowdown(s, fDefault, t.Point(level).FrequencyHz)-1 <= preset {
			return level
		}
	}
	return t.Default()
}

// RowSensitivity estimates the epoch's memory-boundedness from a feature
// row: memBound of the row's stall and instruction counters.
func RowSensitivity(features []float64) float64 {
	if len(features) < counters.Num {
		return 0
	}
	return memBound(features[counters.IdxMH], features[counters.IdxMHNL],
		features[counters.IdxStallCompute], features[counters.IdxStallControl], features[counters.IdxInstr])
}

// memBound is PCSTALL's counter-based memory-boundedness: memory-stall
// issue opportunities (load and other memory hazards) over all issue
// opportunities (those plus compute and control stalls and issued
// instructions). Non-finite or negative inputs yield 0 (fully
// compute-bound — the conservative end, which biases the fallback toward
// faster operating points).
func memBound(memLoad, memOther, compute, control, instr float64) float64 {
	mem := memLoad + memOther
	comp := compute + control + instr
	if mem < 0 || comp < 0 {
		return 0
	}
	s := mem / (mem + comp)
	// A single comparison rejects NaN (from NaN inputs or 0/0) and keeps
	// the estimate in range; +Inf/+Inf also lands here.
	if !(s > 0 && s <= 1) {
		return 0
	}
	return s
}

// FallbackDecision is the analytical safety net for one serving row: pick
// the slowest level whose predicted performance loss under the PCSTALL
// linear model stays within preset, and estimate the next epoch's
// instruction count at that level. If preset is non-finite or negative
// the table's default (fastest) point is returned — the safe operating
// point that costs energy, never deadlines.
func FallbackDecision(t *clockdomain.Table, features []float64, preset float64) (level int, predInstr float64) {
	level = t.Default()
	if preset >= 0 && !math.IsInf(preset, 0) && preset == preset {
		s := RowSensitivity(features)
		level = slowestWithin(t, s, preset)
		predInstr = fallbackPredict(t, features, s, level)
	}
	return level, predInstr
}

// fallbackPredict scales the finished epoch's instruction count by the
// relative speed the sensitivity model predicts for the chosen level: in
// a fixed-length epoch, instructions shrink with effective slowdown.
func fallbackPredict(t *clockdomain.Table, features []float64, s float64, level int) float64 {
	if len(features) < counters.Num {
		return 0
	}
	instr := features[counters.IdxInstr]
	fDefault := t.Point(t.Default()).FrequencyHz
	pred := instr / Slowdown(s, fDefault, t.Point(level).FrequencyHz)
	if !(pred > 0) || math.IsInf(pred, 0) {
		return 0
	}
	return pred
}
