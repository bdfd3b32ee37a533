package gpusim

import (
	"math"

	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/isa"
)

// epochAccum accumulates raw event counts for the current epoch of one
// cluster. It is reset at every epoch boundary.
type epochAccum struct {
	opCounts     [isa.NumOps]int64
	instructions int64
	cycles       int64
	activeCycles int64

	stallMemLoad  int64 // waiting for global-load data (MH)
	stallMemOther int64 // LSU busy / MSHR full / store-queue full (MH\L)
	stallCompute  int64 // waiting on ALU/SFU/shared results
	stallControl  int64 // branch pipeline refill
	// readyNotIssued counts every unretired warp visited after the cycle's
	// issue width is spent — whether or not it could have issued — so it
	// measures occupancy behind the arbiter, not eligibility.
	readyNotIssued int64
	dvfsStall      int64 // cycles lost to IVR transitions

	l1ReadHits      int64
	l1ReadMisses    int64
	l1WriteAccesses int64
	l2Accesses      int64
	l2Hits          int64
	l2Misses        int64
	dramLines       int64
	sharedLoads     int64
	branches        int64
}

// cluster is one SM cluster: a set of warps, a private L1, execution-unit
// issue limits, and its own clock domain.
type cluster struct {
	id  int
	cfg *Config

	domain *clockdomain.Domain
	warps  []warp
	// sched is the scheduler's compact view of warps, indexed like warps.
	sched []warpSched
	l1    *cache

	nowPs int64
	rrPtr int
	// greedyWarp is the last successfully issuing warp (GTO policy).
	greedyWarp int

	// Completion times of outstanding load misses / queued stores.
	outstandingLoads  []int64
	outstandingStores []int64

	finishedWarps int
	done          bool
	lastFinishPs  int64

	acc epochAccum
	// epochLevel is the OP level in force for the current epoch (levels
	// change only at epoch boundaries).
	epochLevel int

	// pending is the L2/DRAM traffic of the cluster's last step that has
	// not been performed yet, in issue order, and pendingLines the lines it
	// touches: a global load's lines that missed L1, a store's every line.
	// pendingPs is the time of that step. Both buffers are reused.
	pending      []memOp
	pendingLines []uint64
	pendingPs    int64
}

// memOp is one memory instruction's share of a step's pending traffic: the
// next lines of pendingLines, performed by resolve.
type memOp struct {
	w     *warp
	dst   isa.Reg
	store bool
	lines int
	// readyPs is a load's L1 hit time: its lines go to L2 then, and its data
	// is not ready before it.
	readyPs int64
}

// unresolvedPs is the completion time a load's destination register and
// outstanding-queue entry, or a store's queue entry, carry from the step
// that issued it until resolve writes the real one. Nothing reads it as a
// time: the issuing warp does not issue again in that step, and any entry
// later than the step is a live queue entry whatever its value. Every real
// completion time is later than the step too, so the step sees what the
// real times would have shown it.
const unresolvedPs = math.MaxInt64

func newCluster(id int, cfg *Config, kernel *isa.Kernel) *cluster {
	c := &cluster{
		id:     id,
		cfg:    cfg,
		domain: clockdomain.NewDomain(cfg.OPs, cfg.IVR),
		l1:     newCache(cfg.L1),
	}
	c.newPendingBuffers()
	c.epochLevel = c.domain.Level()
	c.warps = make([]warp, kernel.WarpsPerCluster)
	c.sched = make([]warpSched, kernel.WarpsPerCluster)
	for i := range c.warps {
		prog := &kernel.Programs[i%len(kernel.Programs)]
		c.warps[i] = warp{
			body:       prog.Body,
			iterations: prog.Iterations,
			id:         id*kernel.WarpsPerCluster + i,
		}
	}
	return c
}

// queueFull reports whether the outstanding-load or outstanding-store queue
// q still holds limit entries at nowPs, dropping completed entries first.
// This is the only place the queues are drained: every entry is appended
// with a completion time later than the cycle appending it, so the live
// count seen here is the same as if each cycle had dropped its completions.
func queueFull(q *[]int64, limit int, nowPs int64) bool {
	if len(*q) < limit {
		return false
	}
	live := (*q)[:0]
	for _, t := range *q {
		if t > nowPs {
			live = append(live, t)
		}
	}
	*q = live
	return len(live) >= limit
}

// stallReason classifies why a warp could not issue this cycle.
type stallReason uint8

const (
	stallNone stallReason = iota
	stallMemLoadR
	stallMemOtherR
	stallComputeR
	stallControlR
	numStallReasons
)

// warpSched is what the issue loop needs to know about a warp without
// touching the warp itself: whether it has retired and, when its last issue
// attempt was blocked by its own pacing or scoreboard, until when and why.
// A warp's ready times are written only by its own issue, so until wakePs
// the warp would give the same stall reason every cycle and is not probed.
type warpSched struct {
	wakePs   int64 // the warp cannot issue before this time; probe once reached
	reason   stallReason
	finished bool
}

// newPendingBuffers gives the cluster empty pending-traffic buffers sized
// for a step of its widest loads and stores: one per LSU.
func (c *cluster) newPendingBuffers() {
	c.pending = make([]memOp, 0, c.cfg.LSUUnits)
	c.pendingLines = make([]uint64, 0, 32)
}

// tryIssue checks whether warp w can issue at nowPs given the remaining
// per-cycle unit budgets, and if so performs the issue (updating the
// scoreboard and L1, and leaving L2/DRAM traffic pending). It returns
// stallNone on success and the stall reason on failure. When the warp is blocked by its own
// pacing or scoreboard it also returns the time that block lifts; a
// structural stall (unit, MSHR or store-queue limit) depends on other warps
// and on queue drain, and returns wake time 0.
func (c *cluster) tryIssue(w *warp, nowPs, period int64, aluLeft, sfuLeft, lsuLeft *int) (stallReason, int64) {
	if nowPs < w.nextEligiblePs {
		return stallControlR, w.nextEligiblePs
	}
	ins := w.current()

	// Scoreboard: RAW on sources, WAW on destination, in that order.
	// Register 0 is never written (writeReg), so its ready time stays 0 and
	// it never blocks.
	if ready := w.regReadyPs[ins.SrcA&regMask]; ready > nowPs {
		return w.regStall(ins.SrcA), ready
	}
	if ready := w.regReadyPs[ins.SrcB&regMask]; ready > nowPs {
		return w.regStall(ins.SrcB), ready
	}
	if ready := w.regReadyPs[ins.Dst&regMask]; ready > nowPs {
		return w.regStall(ins.Dst), ready
	}

	cfg := c.cfg

	switch ins.Op {
	case isa.OpIAlu, isa.OpFAlu:
		if *aluLeft == 0 {
			return stallComputeR, 0
		}
		*aluLeft--
		lat := cfg.IAluLatency
		if ins.Op == isa.OpFAlu {
			lat = cfg.FAluLatency
		}
		c.writeReg(w, ins.Dst, nowPs+int64(lat)*period, false)

	case isa.OpSFU:
		if *sfuLeft == 0 {
			return stallComputeR, 0
		}
		*sfuLeft--
		c.writeReg(w, ins.Dst, nowPs+int64(cfg.SFULatency)*period, false)

	case isa.OpLoadShared:
		if *lsuLeft == 0 {
			return stallMemOtherR, 0
		}
		*lsuLeft--
		c.writeReg(w, ins.Dst, nowPs+int64(cfg.SharedLatency)*period, false)
		c.acc.sharedLoads++

	case isa.OpBranch:
		w.nextEligiblePs = nowPs + int64(cfg.BranchLatency)*period
		c.acc.branches++

	case isa.OpLoadGlobal:
		if *lsuLeft == 0 {
			return stallMemOtherR, 0
		}
		if queueFull(&c.outstandingLoads, cfg.MSHRs, nowPs) {
			return stallMemOtherR, 0
		}
		*lsuLeft--
		done := c.accessLoad(w, ins, nowPs, period)
		c.writeReg(w, ins.Dst, done, true)
		c.outstandingLoads = append(c.outstandingLoads, done)

	case isa.OpStoreGlobal:
		if *lsuLeft == 0 {
			return stallMemOtherR, 0
		}
		if queueFull(&c.outstandingStores, cfg.StoreQueue, nowPs) {
			return stallMemOtherR, 0
		}
		*lsuLeft--
		c.accessStore(w, ins, nowPs)
		c.outstandingStores = append(c.outstandingStores, unresolvedPs)
	}

	c.acc.opCounts[ins.Op]++
	c.acc.instructions++
	w.issued++
	w.advance()
	if w.finished {
		c.finishedWarps++
		if nowPs > c.lastFinishPs {
			c.lastFinishPs = nowPs
		}
	}
	return stallNone, 0
}

// writeReg records a pending register write in the scoreboard.
func (c *cluster) writeReg(w *warp, r isa.Reg, readyPs int64, fromLoad bool) {
	if r == 0 {
		return
	}
	w.regReadyPs[r&regMask] = readyPs
	w.regFromLoad[r&regMask] = fromLoad
}

// accessLoad walks the load's cache lines through L1. When every line
// hits it returns the load's completion time; otherwise the missing lines
// are left pending for L2/DRAM and it returns unresolvedPs.
func (c *cluster) accessLoad(w *warp, ins *isa.Instruction, nowPs int64, period int64) int64 {
	hitLat := nowPs + int64(c.cfg.L1HitCycles)*period
	start := len(c.pendingLines)
	lines := lineAddrs(c.pendingLines, &ins.Mem, w.id, w.iter, w.pc, c.cfg.L1.LineBytes)
	// Keep the misses in place: the write index never passes the read one.
	misses := lines[:start]
	for _, addr := range lines[start:] {
		if c.l1.access(addr) {
			c.acc.l1ReadHits++
			continue
		}
		c.acc.l1ReadMisses++
		misses = append(misses, addr)
	}
	c.pendingLines = misses
	if len(misses) == start {
		return hitLat
	}
	c.pending = append(c.pending, memOp{w: w, dst: ins.Dst, lines: len(misses) - start, readyPs: hitLat})
	c.pendingPs = nowPs
	return unresolvedPs
}

// accessStore leaves a write-through store (no L1 allocate) pending for
// L2/DRAM.
func (c *cluster) accessStore(w *warp, ins *isa.Instruction, nowPs int64) {
	start := len(c.pendingLines)
	c.pendingLines = lineAddrs(c.pendingLines, &ins.Mem, w.id, w.iter, w.pc, c.cfg.L1.LineBytes)
	n := len(c.pendingLines) - start
	c.acc.l1WriteAccesses += int64(n)
	c.pending = append(c.pending, memOp{w: w, store: true, lines: n})
	c.pendingPs = nowPs
}

// resolve performs the cluster's pending traffic on mem, in issue order, and
// writes the completion times over the placeholders the issuing step left.
// CloseEpoch calls it only when no other cluster can still make an L2/DRAM
// access that comes before it in (time, cluster) order.
func (c *cluster) resolve(mem *memSystem) {
	lines := c.pendingLines
	for i := range c.pending {
		op := &c.pending[i]
		var done int64
		if op.store {
			done = c.pendingPs
			for _, addr := range lines[:op.lines] {
				t, l2Hit, dram := mem.writeLine(addr, c.pendingPs)
				c.countL2(l2Hit, dram)
				done = max(done, t)
			}
			fillPlaceholder(c.outstandingStores, done)
		} else {
			done = op.readyPs
			for _, addr := range lines[:op.lines] {
				t, l2Hit, dram := mem.readLine(addr, op.readyPs)
				c.countL2(l2Hit, dram)
				done = max(done, t)
			}
			if op.dst != 0 {
				op.w.regReadyPs[op.dst&regMask] = done
			}
			fillPlaceholder(c.outstandingLoads, done)
		}
		lines = lines[op.lines:]
	}
	c.pending = c.pending[:0]
	c.pendingLines = c.pendingLines[:0]
}

// nextEventPs is when the cluster next touches shared state or runs: the
// time of its pending traffic, else its next tick, or math.MaxInt64 once it
// is done, so it is never the earliest.
func (c *cluster) nextEventPs() int64 {
	switch {
	case len(c.pending) > 0:
		return c.pendingPs
	case c.done:
		return math.MaxInt64
	}
	return c.nowPs
}

func (c *cluster) countL2(l2Hit, dram bool) {
	c.acc.l2Accesses++
	if l2Hit {
		c.acc.l2Hits++
	} else {
		c.acc.l2Misses++
	}
	if dram {
		c.acc.dramLines++
	}
}

// fillPlaceholder writes t over the last unresolvedPs entry of q. The
// entries a step appended are at or near the end, and the queue's order
// means nothing.
func fillPlaceholder(q []int64, t int64) {
	for i := len(q) - 1; ; i-- {
		if q[i] == unresolvedPs {
			q[i] = t
			return
		}
	}
}

// step executes the cluster's clock cycle at its current time and advances
// the cluster clock. limitPs (> nowPs) is the earliest time at which the
// caller has to look at the simulation again: the epoch end or the RunUntil
// target. When the cycle provably repeats — the domain is mid-transition, or
// nothing issued and every live warp is blocked on its own scoreboard or
// pacing — step accounts for all the identical cycles up to the first one at
// or after the earliest wake time or limitPs in one go. Skipped cycles touch
// no cache and make no memory traffic, so the result is what cycle-by-cycle
// stepping gives. A step that issues global loads missing L1 or stores
// leaves their traffic pending, and the cluster must not step again before
// resolve has performed it.
func (c *cluster) step(limitPs int64) {
	nowPs := c.nowPs
	period := c.domain.PeriodPs()

	if c.domain.Stalled(nowPs) {
		k := cyclesUntil(nowPs, min(c.domain.StallUntilPs(), limitPs), period)
		c.acc.cycles += k
		c.acc.dvfsStall += k
		c.nowPs += k * period
		return
	}

	aluLeft := c.cfg.ALUUnits
	sfuLeft := c.cfg.SFUUnits
	lsuLeft := c.cfg.LSUUnits
	issueLeft := c.cfg.IssueWidth
	gto := c.cfg.Scheduler == SchedGTO
	// The candidate order is fixed at the start of the cycle: an issue below
	// moves c.greedyWarp, and an order read from it mid-scan would skip one
	// warp and visit another twice.
	greedy := c.greedyWarp

	n := len(c.warps)
	issuedAny := false
	// stalls tallies this cycle's stall reasons; wakePs is the earliest
	// time any blocked warp can issue, or 0 once a warp hit a structural
	// stall and the next cycle may differ from this one.
	var stalls [numStallReasons]int64
	wakePs := int64(math.MaxInt64)
	for i := 0; i < n; i++ {
		// Candidate order is the scheduling policy: LRR rotates the start
		// position; GTO tries the greedy warp first and then the oldest
		// (lowest-index) warps.
		var idx int
		if gto {
			switch {
			case i == 0:
				idx = greedy
			case i <= greedy:
				idx = i - 1
			default:
				idx = i
			}
		} else {
			idx = c.rrPtr + i
			if idx >= n {
				idx -= n
			}
		}
		ws := &c.sched[idx]
		if ws.finished {
			continue
		}
		if issueLeft == 0 {
			// Remaining warps lost arbitration this cycle; count them so
			// occupancy pressure is visible.
			if c.finishedWarps == 0 {
				c.acc.readyNotIssued += int64(n - i)
				break
			}
			c.acc.readyNotIssued++
			continue
		}
		if nowPs < ws.wakePs {
			stalls[ws.reason]++
			wakePs = min(wakePs, ws.wakePs)
			continue
		}
		w := &c.warps[idx]
		reason, wake := c.tryIssue(w, nowPs, period, &aluLeft, &sfuLeft, &lsuLeft)
		if reason == stallNone {
			issueLeft--
			issuedAny = true
			c.greedyWarp = idx
			ws.finished = w.finished
			continue
		}
		stalls[reason]++
		ws.wakePs, ws.reason = wake, reason
		wakePs = min(wakePs, wake)
	}

	k := int64(1)
	if issuedAny {
		c.acc.activeCycles++
		c.rrPtr++
		if c.rrPtr == n {
			c.rrPtr = 0
		}
	} else if wakePs > nowPs {
		k = cyclesUntil(nowPs, min(wakePs, limitPs), period)
	}
	c.acc.cycles += k
	c.acc.stallMemLoad += k * stalls[stallMemLoadR]
	c.acc.stallMemOther += k * stalls[stallMemOtherR]
	c.acc.stallCompute += k * stalls[stallComputeR]
	c.acc.stallControl += k * stalls[stallControlR]
	if c.finishedWarps == n {
		c.done = true
	}
	c.nowPs += k * period
}

// cyclesUntil returns how many cycles of the given period, the first at
// fromPs, start before untilPs (> fromPs): the cycle count that brings the
// clock to its first tick at or after untilPs.
func cyclesUntil(fromPs, untilPs, period int64) int64 {
	return (untilPs - fromPs + period - 1) / period
}

// clone deep-copies the cluster for simulator snapshots.
func (c *cluster) clone(cfg *Config) *cluster {
	cp := *c
	cp.cfg = cfg
	cp.warps = append([]warp(nil), c.warps...)
	cp.sched = append([]warpSched(nil), c.sched...)
	cp.l1 = c.l1.clone()
	cp.outstandingLoads = append([]int64(nil), c.outstandingLoads...)
	cp.outstandingStores = append([]int64(nil), c.outstandingStores...)
	cp.newPendingBuffers()
	// Domain is a value type over an immutable table; a shallow copy is a
	// correct deep copy.
	d := *c.domain
	cp.domain = &d
	return &cp
}
