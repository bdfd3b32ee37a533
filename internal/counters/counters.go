// Package counters derives the 47 per-epoch performance counters the
// paper's data-generation process collects, groups them into the three
// metric categories of Section III-B (instruction, execution-stall, and
// power metrics), and provides the feature scaling used for model
// training. The five counters of Table I — IPC, PPC, MH, MH\L and
// L1CRM — are exposed as the canonical selected subset.
package counters

import (
	"fmt"
	"math"

	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/isa"
)

// Category is one of the paper's three metric groups.
type Category uint8

const (
	// Instruction counters describe what executed.
	Instruction Category = iota
	// Stall counters describe why execution waited.
	Stall
	// Power counters are the direct features.
	Power
)

func (c Category) String() string {
	switch c {
	case Instruction:
		return "instruction"
	case Stall:
		return "stall"
	case Power:
		return "power"
	default:
		return fmt.Sprintf("category(%d)", uint8(c))
	}
}

// Counter describes one of the 47 performance counters.
type Counter struct {
	Name     string
	Category Category
}

// Num is the number of performance counters, matching the paper's 47.
const Num = 47

// Canonical counter indices used across the project. The five Table I
// counters come first so the selected subset is a stable prefix-free set.
const (
	IdxIPC   = 0 // instructions per core per cycle
	IdxPPC   = 1 // total power per core (W)
	IdxMH    = 2 // memory hazard stalls (waiting on load data)
	IdxMHNL  = 3 // memory hazards from other than load
	IdxL1CRM = 4 // L1 cache read misses

	// Indices consumed by the analytical fallback path, which must be able
	// to reconstruct PCSTALL's sensitivity estimate from a raw feature row.
	IdxInstr        = 5  // instructions executed in the epoch
	IdxStallCompute = 21 // compute-dependency stalls
	IdxStallControl = 22 // control-dependency stalls

	// The remaining stall kinds and the operating level, which trace
	// readers take from a stored row.
	IdxReadyNotIssued = 23 // ready warps the issue stage passed over
	IdxDVFSStall      = 24 // cycles lost to voltage/frequency transitions
	IdxLevel          = 46 // operating level the epoch ran at
)

var defs = [Num]Counter{
	{Name: "ipc", Category: Instruction},
	{Name: "ppc_total_w", Category: Power},
	{Name: "stall_mem_hazard", Category: Stall},
	{Name: "stall_mem_other", Category: Stall},
	{Name: "l1_read_misses", Category: Stall},

	// Remaining instruction metrics.
	{Name: "instructions", Category: Instruction},
	{Name: "op_ialu", Category: Instruction},
	{Name: "op_falu", Category: Instruction},
	{Name: "op_sfu", Category: Instruction},
	{Name: "op_ldg", Category: Instruction},
	{Name: "op_stg", Category: Instruction},
	{Name: "op_lds", Category: Instruction},
	{Name: "op_branch", Category: Instruction},
	{Name: "frac_falu", Category: Instruction},
	{Name: "frac_mem", Category: Instruction},
	{Name: "frac_branch", Category: Instruction},
	{Name: "active_cycle_frac", Category: Instruction},
	{Name: "instr_per_warp", Category: Instruction},
	{Name: "warps_active", Category: Instruction},
	{Name: "issue_util", Category: Instruction},
	{Name: "cycles", Category: Instruction},

	// Remaining stall metrics.
	{Name: "stall_compute", Category: Stall},
	{Name: "stall_control", Category: Stall},
	{Name: "ready_not_issued", Category: Stall},
	{Name: "dvfs_stall", Category: Stall},
	{Name: "stall_total", Category: Stall},
	{Name: "stall_mem_frac", Category: Stall},
	{Name: "stall_compute_frac", Category: Stall},
	{Name: "l1_read_hits", Category: Stall},
	{Name: "l1_read_miss_rate", Category: Stall},
	{Name: "l1_write_accesses", Category: Stall},
	{Name: "l2_accesses", Category: Stall},
	{Name: "l2_hits", Category: Stall},
	{Name: "l2_misses", Category: Stall},
	{Name: "l2_miss_rate", Category: Stall},
	{Name: "dram_lines", Category: Stall},
	{Name: "dram_bytes_per_instr", Category: Stall},
	{Name: "l1_mpki", Category: Stall},
	{Name: "l2_mpki", Category: Stall},
	{Name: "shared_loads", Category: Stall},

	// Remaining power metrics and operating-state inputs.
	{Name: "ppc_dynamic_w", Category: Power},
	{Name: "ppc_static_w", Category: Power},
	{Name: "energy_pj", Category: Power},
	{Name: "energy_per_instr_pj", Category: Power},
	{Name: "freq_mhz", Category: Power},
	{Name: "voltage_v", Category: Power},
	{Name: "op_level", Category: Power},
}

// Names returns the 47 counter names in index order.
func Names() []string {
	out := make([]string, Num)
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// Def returns counter i's definition.
func Def(i int) Counter { return defs[i] }

// Index returns the index of the named counter, or an error.
func Index(name string) (int, error) {
	for i, d := range defs {
		if d.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("counters: unknown counter %q", name)
}

// SelectedFive returns the indices of the paper's Table I counters:
// IPC, PPC, MH, MH\L, L1CRM.
func SelectedFive() []int {
	return []int{IdxIPC, IdxPPC, IdxMH, IdxMHNL, IdxL1CRM}
}

// PowerOnly returns the indices of the direct (power) features, used by
// the feature-set ablation.
func PowerOnly() []int {
	var out []int
	for i, d := range defs {
		if d.Category == Power {
			out = append(out, i)
		}
	}
	return out
}

// FromStats computes the 47-counter vector from one cluster epoch.
func FromStats(s gpusim.EpochStats) []float64 {
	v := make([]float64, Num)
	instr := float64(s.Instructions)
	cycles := float64(s.Cycles)
	stallTotal := s.StallMemLoad + s.StallMemOther + s.StallCompute + s.StallControl

	v[IdxIPC] = s.IPC()
	v[IdxPPC] = s.PowerW()
	v[IdxMH] = float64(s.StallMemLoad)
	v[IdxMHNL] = float64(s.StallMemOther)
	v[IdxL1CRM] = float64(s.L1ReadMisses)

	v[IdxInstr] = instr
	v[6] = float64(s.OpCounts[isa.OpIAlu])
	v[7] = float64(s.OpCounts[isa.OpFAlu])
	v[8] = float64(s.OpCounts[isa.OpSFU])
	v[9] = float64(s.OpCounts[isa.OpLoadGlobal])
	v[10] = float64(s.OpCounts[isa.OpStoreGlobal])
	v[11] = float64(s.OpCounts[isa.OpLoadShared])
	v[12] = float64(s.OpCounts[isa.OpBranch])
	if instr > 0 {
		v[13] = float64(s.OpCounts[isa.OpFAlu]) / instr
		v[14] = float64(s.OpCounts[isa.OpLoadGlobal]+s.OpCounts[isa.OpStoreGlobal]) / instr
		v[15] = float64(s.OpCounts[isa.OpBranch]) / instr
	}
	if cycles > 0 {
		v[16] = float64(s.ActiveCycles) / cycles
	}
	if s.WarpsActive > 0 {
		v[17] = instr / float64(s.WarpsActive)
	}
	v[18] = float64(s.WarpsActive)
	if cycles > 0 {
		v[19] = instr / (cycles * 2) // issue slots assuming dual issue
	}
	v[20] = cycles

	v[IdxStallCompute] = float64(s.StallCompute)
	v[IdxStallControl] = float64(s.StallControl)
	v[IdxReadyNotIssued] = float64(s.ReadyNotIssued)
	v[IdxDVFSStall] = float64(s.DVFSStall)
	v[25] = float64(stallTotal)
	if stallTotal > 0 {
		v[26] = float64(s.StallMemLoad+s.StallMemOther) / float64(stallTotal)
		v[27] = float64(s.StallCompute) / float64(stallTotal)
	}
	v[28] = float64(s.L1ReadHits)
	v[29] = s.L1ReadMissRate()
	v[30] = float64(s.L1WriteAccesses)
	v[31] = float64(s.L2Accesses)
	v[32] = float64(s.L2Hits)
	v[33] = float64(s.L2Misses)
	if s.L2Accesses > 0 {
		v[34] = float64(s.L2Misses) / float64(s.L2Accesses)
	}
	v[35] = float64(s.DRAMLines)
	if instr > 0 {
		v[36] = float64(s.DRAMLines) * 64 / instr
		v[37] = float64(s.L1ReadMisses) / instr * 1000
		v[38] = float64(s.L2Misses) / instr * 1000
	}
	v[39] = float64(s.SharedLoads)

	v[40] = s.DynPowerW
	v[41] = s.StaticPowerW
	v[42] = s.EnergyPJ
	if instr > 0 {
		v[43] = s.EnergyPJ / instr
	}
	v[44] = s.OP.FrequencyHz / 1e6
	v[45] = s.OP.VoltageV
	v[IdxLevel] = float64(s.Level)
	return v
}

// Scaler standardizes feature vectors to zero mean and unit variance,
// fitted on a training set. Features with zero variance pass through
// centred only.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler computes per-column mean and standard deviation over rows.
// All rows must share the same length.
func FitScaler(rows [][]float64) (*Scaler, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("counters: cannot fit scaler on empty data")
	}
	n := len(rows[0])
	mean := make([]float64, n)
	std := make([]float64, n)
	for _, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("counters: inconsistent row length %d vs %d", len(r), n)
		}
		for j, x := range r {
			mean[j] += x
		}
	}
	for j := range mean {
		mean[j] /= float64(len(rows))
	}
	for _, r := range rows {
		for j, x := range r {
			d := x - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(len(rows)))
		if std[j] < 1e-12 {
			std[j] = 1
		}
	}
	return &Scaler{Mean: mean, Std: std}, nil
}

// Transform returns a standardized copy of row.
func (s *Scaler) Transform(row []float64) []float64 {
	out := make([]float64, len(row))
	s.TransformInto(row, out)
	return out
}

// TransformInto standardizes row into dst (len(dst) must equal len(row)),
// allocating nothing. The scaler itself is read-only and safe for
// concurrent use.
func (s *Scaler) TransformInto(row, dst []float64) {
	for j, x := range row {
		dst[j] = (x - s.Mean[j]) / s.Std[j]
	}
}

// TransformAll standardizes every row, returning new slices.
func (s *Scaler) TransformAll(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = s.Transform(r)
	}
	return out
}

// Select extracts the given columns from row.
func Select(row []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	SelectInto(row, idx, out)
	return out
}

// SelectInto extracts the given columns from row into dst, whose first
// len(idx) elements are overwritten.
func SelectInto(row []float64, idx []int, dst []float64) {
	for i, j := range idx {
		dst[i] = row[j]
	}
}
