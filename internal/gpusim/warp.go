package gpusim

import "ssmdvfs/internal/isa"

// warp is the dynamic state of one executing warp: program position,
// scoreboard, and pacing. All times are absolute picoseconds.
type warp struct {
	// body and iterations are the warp's program: the loop body it runs
	// and how many times.
	body       []isa.Instruction
	iterations int
	id         int // warp index within the cluster (used for address generation)

	pc       int
	iter     int
	finished bool

	// regReadyPs[r] is when register r's pending write completes.
	regReadyPs [isa.MaxRegs]int64
	// regFromLoad[r] records whether the pending writer of r is a global
	// load, to attribute stalls to memory vs. compute hazards.
	regFromLoad [isa.MaxRegs]bool

	// nextEligiblePs paces the warp after branches (pipeline refill).
	nextEligiblePs int64
	// wakePs is, while the warp sleeps in the scheduler, when the pacing or
	// scoreboard block that refused it lifts: only its own issue moves it.
	wakePs int64
}

// regMask maps a register to its scoreboard slot. isa.Validate bounds every
// register below MaxRegs, so the mask changes no index; it only tells the
// compiler the index is in range, which the hot path would otherwise check.
const regMask = isa.MaxRegs - 1

// MaxRegs must be a power of two for regMask to be a mask.
const _ uint = -(isa.MaxRegs & regMask)

// regStall is the stall reason for a scoreboard block on register r: memory
// when its pending writer is a global load, compute otherwise.
func (w *warp) regStall(r isa.Reg) stallReason {
	if w.regFromLoad[r&regMask] {
		return stallMemLoadR
	}
	return stallComputeR
}

func (w *warp) current() *isa.Instruction {
	return &w.body[w.pc]
}

// advance moves to the next instruction, retiring the warp when the last
// iteration of the body completes.
func (w *warp) advance() {
	w.pc++
	if w.pc == len(w.body) {
		w.pc = 0
		w.iter++
		if w.iter >= w.iterations {
			w.finished = true
		}
	}
}

// splitmix64 is the finalizer of the SplitMix64 generator; used to hash
// (warp, iteration) into irregular addresses deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// memAddr computes the base address one execution of a memory instruction
// touches, deterministically from (warp, iteration, pc).
func memAddr(m *isa.MemSpec, warpID, iter, pc int) uint64 {
	var off uint64
	switch m.Pattern {
	case isa.PatternSequential:
		off = uint64(iter)*m.StrideBytes + uint64(warpID)*m.WarpStrideBytes
	case isa.PatternStrided:
		// A large co-prime stride defeats spatial locality while staying
		// deterministic.
		off = uint64(iter)*(m.StrideBytes*17+64) + uint64(warpID)*m.WarpStrideBytes
	case isa.PatternRandom:
		h := splitmix64(uint64(warpID)<<40 ^ uint64(iter)<<8 ^ uint64(pc))
		off = h
	}
	if m.FootprintBytes > 0 {
		off %= m.FootprintBytes
	}
	// Align to 32 bytes so CoalescedLines spreads across line boundaries
	// predictably.
	off &^= 31
	return m.Base + off
}

// lineAddrs appends the distinct cache-line addresses one execution of a
// memory instruction touches (CoalescedLines of them) to dst and returns
// the extended slice. Scattered accesses spread lines across the
// footprint rather than contiguously.
func lineAddrs(dst []uint64, m *isa.MemSpec, warpID, iter, pc, lineBytes int) []uint64 {
	base := memAddr(m, warpID, iter, pc)
	if m.CoalescedLines <= 1 {
		return append(dst, base)
	}
	if m.Pattern == isa.PatternRandom {
		for i := 0; i < m.CoalescedLines; i++ {
			h := splitmix64(base + uint64(i)*0x9e3779b9)
			off := h % m.FootprintBytes
			dst = append(dst, m.Base+(off&^uint64(lineBytes-1)))
		}
		return dst
	}
	for i := 0; i < m.CoalescedLines; i++ {
		dst = append(dst, base+uint64(i*lineBytes))
	}
	return dst
}
