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

	// lineBuf is scratch for address generation, reused across cycles.
	lineBuf []uint64
}

func newCluster(id int, cfg *Config, kernel *isa.Kernel) *cluster {
	c := &cluster{
		id:      id,
		cfg:     cfg,
		domain:  clockdomain.NewDomain(cfg.OPs, cfg.IVR),
		l1:      newCache(cfg.L1),
		lineBuf: make([]uint64, 0, 32),
	}
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

// tryIssue checks whether warp w can issue at nowPs given the remaining
// per-cycle unit budgets, and if so performs the issue (updating the
// scoreboard, caches, and memory system). It returns stallNone on success
// and the stall reason on failure. When the warp is blocked by its own
// pacing or scoreboard it also returns the time that block lifts; a
// structural stall (unit, MSHR or store-queue limit) depends on other warps
// and on queue drain, and returns wake time 0.
func (c *cluster) tryIssue(w *warp, mem *memSystem, nowPs, period int64, aluLeft, sfuLeft, lsuLeft *int) (stallReason, int64) {
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
		done := c.accessLoad(w, ins, mem, nowPs, period)
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
		done := c.accessStore(w, ins, mem, nowPs)
		c.outstandingStores = append(c.outstandingStores, done)
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

// accessLoad walks the load's cache lines through L1 (and L2/DRAM on
// misses) and returns the load's completion time.
func (c *cluster) accessLoad(w *warp, ins *isa.Instruction, mem *memSystem, nowPs int64, period int64) int64 {
	c.lineBuf = lineAddrs(c.lineBuf[:0], &ins.Mem, w.id, w.iter, w.pc, c.cfg.L1.LineBytes)
	hitLat := nowPs + int64(c.cfg.L1HitCycles)*period
	done := hitLat
	for _, addr := range c.lineBuf {
		if c.l1.access(addr) {
			c.acc.l1ReadHits++
			continue
		}
		c.acc.l1ReadMisses++
		t, l2Hit, dram := mem.readLine(addr, hitLat)
		c.acc.l2Accesses++
		if l2Hit {
			c.acc.l2Hits++
		} else {
			c.acc.l2Misses++
		}
		if dram {
			c.acc.dramLines++
		}
		if t > done {
			done = t
		}
	}
	return done
}

// accessStore issues a write-through store (no L1 allocate) and returns
// when the memory system has accepted it.
func (c *cluster) accessStore(w *warp, ins *isa.Instruction, mem *memSystem, nowPs int64) int64 {
	c.lineBuf = lineAddrs(c.lineBuf[:0], &ins.Mem, w.id, w.iter, w.pc, c.cfg.L1.LineBytes)
	done := nowPs
	for _, addr := range c.lineBuf {
		c.acc.l1WriteAccesses++
		t, l2Hit, dram := mem.writeLine(addr, nowPs)
		c.acc.l2Accesses++
		if l2Hit {
			c.acc.l2Hits++
		} else {
			c.acc.l2Misses++
		}
		if dram {
			c.acc.dramLines++
		}
		if t > done {
			done = t
		}
	}
	return done
}

// step executes the cluster's clock cycle at its current time and advances
// the cluster clock. limitPs (> nowPs) is the earliest time at which the
// caller has to look at the simulation again: the epoch end or the RunUntil
// target. When the cycle provably repeats — the domain is mid-transition, or
// nothing issued and every live warp is blocked on its own scoreboard or
// pacing — step accounts for all the identical cycles up to the first one at
// or after the earliest wake time or limitPs in one go. Skipped cycles touch
// neither L1 nor mem, so the result is what cycle-by-cycle stepping gives.
func (c *cluster) step(mem *memSystem, limitPs int64) {
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
		reason, wake := c.tryIssue(w, mem, nowPs, period, &aluLeft, &sfuLeft, &lsuLeft)
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
	cp.lineBuf = make([]uint64, 0, cap(c.lineBuf))
	// Domain is a value type over an immutable table; a shallow copy is a
	// correct deep copy.
	d := *c.domain
	cp.domain = &d
	return &cp
}
