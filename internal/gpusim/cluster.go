package gpusim

import (
	"math"
	"math/bits"

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

	stalls [numStallReasons]int64 // warp-cycles lost, by stall reason
	// readyNotIssued counts every unretired warp the cycle's scan had not
	// reached when the issue width was spent — whether or not it could have
	// issued — so it measures occupancy behind the arbiter, not eligibility.
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
	l1     *cache

	nowPs int64
	rrPtr int
	// greedyWarp is the last successfully issuing warp (GTO policy).
	greedyWarp int

	// The scheduler's warp sets, bit i for warps[i]. live holds the
	// unfinished warps. A warp refused by its own pacing or scoreboard
	// sleeps until its wakePs: it is in sleeping[reason], and in the wheel
	// bucket of its wake tick (the first tick at or after wakePs) when that
	// is fewer than wheelTicks cycles ahead, in far otherwise. Only the
	// other live warps, the awake ones, are probed.
	live     uint64
	sleeping [numStallReasons]uint64
	// wheel[(wheelPos+d)%wheelTicks] holds the warps that wake d cycles
	// from now; wheelOcc has bit b set when wheel[b] is not empty.
	wheel    [wheelTicks]uint64
	wheelOcc uint64
	wheelPos int
	far      uint64
	// farWakePs is the earliest wakePs in far, math.MaxInt64 when empty.
	farWakePs int64
	// period is the clock period the sleepers are filed for, recip its
	// reciprocal for ticksUntil.
	period int64
	recip  uint64

	// Completion times of outstanding load misses / queued stores.
	outstandingLoads  []int64
	outstandingStores []int64

	lastFinishPs int64

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
	c.refile()
	c.warps = make([]warp, kernel.WarpsPerCluster)
	c.live = ^uint64(0) >> (maxClusterWarps - kernel.WarpsPerCluster)
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
	stallNone      stallReason = iota
	stallMemLoadR              // waiting for global-load data (MH)
	stallMemOtherR             // LSU busy / MSHR full / store-queue full (MH\L)
	stallComputeR              // waiting on ALU/SFU/shared results
	stallControlR              // branch pipeline refill
	numStallReasons
)

const (
	maxClusterWarps = 64 // a warp set is one machine word
	// wheelTicks is the timing wheel's size in cycles, a bucket per bit of
	// wheelOcc. A sleeper wheelTicks or more cycles from its wake tick (a
	// memory wait) goes to far.
	wheelTicks = 64
)

// setLevel moves the cluster to level at atPs, re-filing the sleepers on
// the new period's lattice.
func (c *cluster) setLevel(level int, atPs int64) {
	if c.domain.SetLevel(level, atPs) {
		c.refile()
	}
}

// done reports whether every warp of the cluster has retired.
func (c *cluster) done() bool { return c.live == 0 }

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
	w.advance()
	if w.finished {
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
	case c.done():
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
// nothing issued and every live warp sleeps on its own scoreboard or pacing
// — step accounts for all the identical cycles up to the first one at or
// after the earliest wake time or limitPs in one go. Skipped cycles touch
// no cache and make no memory traffic, so the result is what cycle-by-cycle
// stepping gives. A step that issues global loads missing L1 or stores
// leaves their traffic pending, and the cluster must not step again before
// resolve has performed it.
func (c *cluster) step(limitPs int64) {
	if c.domain.Stalled(c.nowPs) {
		k := c.ticksUntil(min(c.domain.StallUntilPs(), limitPs))
		c.acc.dvfsStall += k
		c.advance(k)
		return
	}

	aluLeft := c.cfg.ALUUnits
	sfuLeft := c.cfg.SFUUnits
	lsuLeft := c.cfg.LSUUnits
	issueLeft := c.cfg.IssueWidth
	// The scan order is the scheduling policy, two ascending runs of warp
	// indices: the warps of first, then the rest. LRR starts at the rotating
	// position; GTO tries the greedy warp first and then the oldest
	// (lowest-index) warps. The order is fixed at the start of the cycle: an
	// issue below moves c.greedyWarp, and an order read from it mid-scan
	// would skip one warp and visit another twice.
	first := ^uint64(0) << c.rrPtr
	if c.cfg.Scheduler == SchedGTO {
		first = 1 << c.greedyWarp
	}
	awake := c.live &^ c.asleep()
	// visited is the warps the scan reached before the issue width was
	// spent.
	visited := ^uint64(0)
	issuedAny, structural := false, false
scan:
	for _, span := range [2]uint64{first, ^first} {
		for m := awake & span; m != 0; m &= m - 1 {
			idx := bits.TrailingZeros64(m)
			w := &c.warps[idx]
			reason, wakePs := c.tryIssue(w, c.nowPs, c.period, &aluLeft, &sfuLeft, &lsuLeft)
			switch {
			case reason == stallNone:
				issuedAny = true
				c.greedyWarp = idx
				if w.finished {
					c.live &^= 1 << idx
				}
				issueLeft--
				if issueLeft == 0 {
					visited = first&^span | span&(2<<idx-1)
					// The warps not reached lost arbitration this cycle;
					// count them so occupancy pressure is visible.
					c.acc.readyNotIssued += int64(bits.OnesCount64(c.live &^ visited))
					break scan
				}
			case wakePs == 0:
				// A structural refusal (unit, MSHR or store-queue limit)
				// depends on other warps and on queue drain: the warp stays
				// awake, and the next cycle may differ from this one.
				c.acc.stalls[reason]++
				structural = true
			default:
				w.wakePs = wakePs
				c.sleeping[reason] |= 1 << idx
				c.file(idx, wakePs)
			}
		}
	}

	k := int64(1)
	if issuedAny {
		c.acc.activeCycles++
		c.rrPtr++
		if c.rrPtr == len(c.warps) {
			c.rrPtr = 0
		}
	} else if !structural {
		// Skip to the first tick at or after limitPs or the earliest wake:
		// the far set's, or the first occupied bucket's.
		k = c.ticksUntil(min(limitPs, c.farWakePs))
		if c.wheelOcc != 0 {
			ahead := bits.RotateLeft64(c.wheelOcc, -(c.wheelPos + 1))
			k = min(k, int64(bits.TrailingZeros64(ahead))+1)
		}
	}
	// Every sleeper the scan reached is charged its own reason, once for
	// each of the k cycles: none of them wakes before the last.
	if slept := c.asleep() & visited; slept != 0 {
		for r := stallMemLoadR; r < numStallReasons; r++ {
			c.acc.stalls[r] += k * int64(bits.OnesCount64(c.sleeping[r]&slept))
		}
	}
	c.advance(k)
}

// asleep returns the sleeping warps.
func (c *cluster) asleep() uint64 {
	s := &c.sleeping
	return s[stallMemLoadR] | s[stallMemOtherR] | s[stallComputeR] | s[stallControlR]
}

// wake moves the warps of m out of the sleeping sets.
func (c *cluster) wake(m uint64) {
	for r := range c.sleeping {
		c.sleeping[r] &^= m
	}
}

// file places sleeping warp idx by its wakePs on the current clock lattice:
// awake once the time has come, in the wheel bucket of its wake tick when
// that is fewer than wheelTicks cycles ahead, in far otherwise.
func (c *cluster) file(idx int, wakePs int64) {
	switch d := wakePs - c.nowPs; {
	case d <= 0:
		c.wake(1 << idx)
	case d > (wheelTicks-1)*c.period:
		c.far |= 1 << idx
		c.farWakePs = min(c.farWakePs, wakePs)
	default:
		b := (c.wheelPos + int(c.ticksUntil(wakePs))) & (wheelTicks - 1)
		c.wheel[b] |= 1 << idx
		c.wheelOcc |= 1 << b
	}
}

// fileAll files the warps of m again, each by its own wakePs.
func (c *cluster) fileAll(m uint64) {
	for ; m != 0; m &= m - 1 {
		idx := bits.TrailingZeros64(m)
		c.file(idx, c.warps[idx].wakePs)
	}
}

// refile files every sleeper again on the lattice of the domain's current
// period, which starts at nowPs.
func (c *cluster) refile() {
	c.period = c.domain.PeriodPs()
	c.recip = math.MaxUint64 / uint64(c.period)
	c.wheel = [wheelTicks]uint64{}
	c.wheelOcc, c.far, c.farWakePs = 0, 0, math.MaxInt64
	c.fileAll(c.asleep())
}

// advance moves the clock k cycles on and wakes the sleepers whose wake tick
// it reaches.
func (c *cluster) advance(k int64) {
	c.acc.cycles += k
	c.nowPs += k * c.period
	if c.wheelOcc != 0 {
		// Bit j of due is the bucket j+1 ticks after the old current one.
		due := bits.RotateLeft64(c.wheelOcc, -(c.wheelPos + 1))
		if k < wheelTicks {
			due &= 1<<k - 1
		}
		c.wheelOcc &^= bits.RotateLeft64(due, c.wheelPos+1)
		for ; due != 0; due &= due - 1 {
			b := (c.wheelPos + 1 + bits.TrailingZeros64(due)) & (wheelTicks - 1)
			c.wake(c.wheel[b])
			c.wheel[b] = 0
		}
	}
	c.wheelPos = (c.wheelPos + int(k)) & (wheelTicks - 1)
	if c.farWakePs <= c.nowPs {
		far := c.far
		c.far, c.farWakePs = 0, math.MaxInt64
		c.fileAll(far)
	}
}

// ticksUntil returns how many cycles of the current period, the first at
// nowPs, start before untilPs (> nowPs): the cycle count that brings the
// clock to its first tick at or after untilPs. It divides by multiplying
// with the period's reciprocal: for d < 2⁶⁴ the high word q of
// d·⌊(2⁶⁴−1)/p⌋ is ⌊d/p⌋ or one less, so the remainder d−q·p is below 2p
// and tells how much to add for the ceiling.
func (c *cluster) ticksUntil(untilPs int64) int64 {
	d, p := uint64(untilPs-c.nowPs), uint64(c.period)
	q, _ := bits.Mul64(d, c.recip)
	if r := d - q*p; r > p {
		q += 2
	} else if r > 0 {
		q++
	}
	return int64(q)
}

// clone deep-copies the cluster for simulator snapshots.
func (c *cluster) clone(cfg *Config) *cluster {
	cp := *c
	cp.cfg = cfg
	cp.warps = append([]warp(nil), c.warps...)
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
