// Package isa defines the trace-level instruction set executed by the GPU
// simulator. Kernels are expressed as per-warp programs of typed
// instructions; the simulator interprets them cycle by cycle, tracking
// register dependencies through a scoreboard. The ISA is deliberately
// small — it captures the execution classes that matter for DVFS
// (compute vs. special-function vs. memory vs. control) rather than the
// full semantics of SASS/PTX.
package isa

import "fmt"

// Op is an instruction class. The simulator charges each class a
// configurable latency and routes it to the matching execution unit.
type Op uint8

const (
	// OpIAlu is an integer ALU operation (add, shift, compare...).
	OpIAlu Op = iota
	// OpFAlu is a single-precision floating-point operation (FMA, MUL...).
	OpFAlu
	// OpSFU is a special-function operation (rsqrt, sin, exp...).
	OpSFU
	// OpLoadGlobal reads from global memory through L1/L2/DRAM.
	OpLoadGlobal
	// OpStoreGlobal writes to global memory (write-through, no allocate).
	OpStoreGlobal
	// OpLoadShared reads from the cluster's shared memory (fixed, short
	// cycle latency; never touches the cache hierarchy).
	OpLoadShared
	// OpBranch is a control-flow instruction; it may stall the warp for a
	// configurable number of cycles to model divergence re-convergence.
	OpBranch
	numOps
)

// NumOps is the number of distinct instruction classes.
const NumOps = int(numOps)

var opNames = [NumOps]string{"IALU", "FALU", "SFU", "LDG", "STG", "LDS", "BRA"}

func (o Op) String() string {
	if int(o) < NumOps {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsMemory reports whether the op traverses the global memory hierarchy.
func (o Op) IsMemory() bool { return o == OpLoadGlobal || o == OpStoreGlobal }

// Reg identifies a warp-local register. Register 0 is the zero register:
// writes to it are discarded and reads from it are always ready, so use it
// for "no destination" / "no source".
type Reg uint8

// MaxRegs is the size of each warp's register file.
const MaxRegs = 64

// AccessPattern selects how a memory instruction generates addresses
// across loop iterations.
type AccessPattern uint8

const (
	// PatternSequential walks the footprint linearly with the given stride.
	PatternSequential AccessPattern = iota
	// PatternStrided jumps by large strides, defeating spatial locality.
	PatternStrided
	// PatternRandom hashes (warp, iteration) into the footprint,
	// modelling data-dependent irregular access.
	PatternRandom
)

func (p AccessPattern) String() string {
	switch p {
	case PatternSequential:
		return "seq"
	case PatternStrided:
		return "strided"
	case PatternRandom:
		return "random"
	default:
		return fmt.Sprintf("pattern(%d)", uint8(p))
	}
}

// MemSpec describes the address behaviour of a global-memory instruction.
// All sizes are in bytes. Addresses are generated deterministically from
// (warp ID, iteration, instruction index), so simulation is reproducible.
type MemSpec struct {
	// Base is the starting address of the buffer this instruction touches.
	Base uint64
	// FootprintBytes is the working-set size; generated addresses wrap
	// inside [Base, Base+FootprintBytes).
	FootprintBytes uint64
	// StrideBytes advances the address each loop iteration.
	StrideBytes uint64
	// WarpStrideBytes offsets each warp's stream inside the buffer.
	WarpStrideBytes uint64
	// CoalescedLines is how many distinct cache lines one execution of the
	// instruction touches (1 = fully coalesced warp, up to 32 = fully
	// scattered).
	CoalescedLines int
	// Pattern selects the iteration-to-address mapping.
	Pattern AccessPattern
}

// Instruction is one typed operation in a warp program.
type Instruction struct {
	Op   Op
	Dst  Reg
	SrcA Reg
	SrcB Reg
	// Mem is consulted only for OpLoadGlobal/OpStoreGlobal.
	Mem MemSpec
}

// Program is the body a warp executes, repeated Iterations times. A warp
// finishes when it has executed the whole body Iterations times.
type Program struct {
	Body       []Instruction
	Iterations int
}

// Len returns the total dynamic instruction count of the program.
func (p Program) Len() int { return len(p.Body) * p.Iterations }

// Validate checks the program for structural errors: empty body,
// non-positive iteration count, register indices out of range, or memory
// instructions with inconsistent specs.
func (p Program) Validate() error {
	if len(p.Body) == 0 {
		return fmt.Errorf("isa: program has empty body")
	}
	if p.Iterations <= 0 {
		return fmt.Errorf("isa: program iterations must be positive, got %d", p.Iterations)
	}
	for i, ins := range p.Body {
		if int(ins.Op) >= NumOps {
			return fmt.Errorf("isa: instruction %d has invalid op %d", i, ins.Op)
		}
		if ins.Dst >= MaxRegs || ins.SrcA >= MaxRegs || ins.SrcB >= MaxRegs {
			return fmt.Errorf("isa: instruction %d uses register out of range [0,%d)", i, MaxRegs)
		}
		if ins.Op.IsMemory() {
			m := ins.Mem
			if m.FootprintBytes == 0 {
				return fmt.Errorf("isa: memory instruction %d has zero footprint", i)
			}
			if m.CoalescedLines < 1 || m.CoalescedLines > 32 {
				return fmt.Errorf("isa: memory instruction %d has CoalescedLines=%d, want 1..32", i, m.CoalescedLines)
			}
		}
	}
	return nil
}

// Kernel is a complete simulated workload: a name plus the per-warp
// programs each cluster runs. If a cluster hosts more warps than
// len(Programs), programs are assigned round-robin.
type Kernel struct {
	Name string
	// WarpsPerCluster is how many concurrent warps each cluster runs.
	WarpsPerCluster int
	// Programs are assigned to warps round-robin by warp index.
	Programs []Program
}

// Validate checks the kernel and all of its programs.
func (k Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("isa: kernel has empty name")
	}
	if k.WarpsPerCluster <= 0 {
		return fmt.Errorf("isa: kernel %q has WarpsPerCluster=%d, want > 0", k.Name, k.WarpsPerCluster)
	}
	if len(k.Programs) == 0 {
		return fmt.Errorf("isa: kernel %q has no programs", k.Name)
	}
	for i, p := range k.Programs {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("isa: kernel %q program %d: %w", k.Name, i, err)
		}
	}
	return nil
}

// TotalInstructions returns the dynamic instruction count of one cluster's
// worth of warps (all warps run to completion).
func (k Kernel) TotalInstructions() int64 {
	var total int64
	for w := 0; w < k.WarpsPerCluster; w++ {
		total += int64(k.Programs[w%len(k.Programs)].Len())
	}
	return total
}
