package gpusim

// memSystem is the shared side of the memory hierarchy: a unified L2
// cache plus a multi-channel DRAM model. L2 and DRAM are on the memory
// clock, which is not scaled by core DVFS, so all timing here is in
// wall-clock picoseconds. Lowering core frequency therefore does not slow
// this path down — the mechanism behind workload-dependent frequency
// sensitivity.
type memSystem struct {
	l2 *cache

	l2LatencyPs   int64
	dramLatencyPs int64
	lineServicePs int64
	lineShift     uint

	// chanFreePs[i] is the earliest time channel i can accept a new line.
	chanFreePs []int64
	// chanMask is the channel count less one when the count is a power of
	// two, so channel needs no division; -1 when it is not.
	chanMask int

	dramReadLines  int64
	dramWriteLines int64
}

func newMemSystem(cfg Config) *memSystem {
	return &memSystem{
		l2:            newCache(cfg.L2),
		l2LatencyPs:   cfg.L2LatencyPs,
		dramLatencyPs: cfg.DRAMLatencyPs,
		lineServicePs: cfg.DRAMLineServicePs,
		lineShift:     log2i(cfg.L2.LineBytes),
		chanFreePs:    make([]int64, cfg.DRAMChannels),
		chanMask:      chanMask(cfg.DRAMChannels),
	}
}

func chanMask(channels int) int {
	if channels&(channels-1) != 0 {
		return -1
	}
	return channels - 1
}

// channel interleaves lines over the channels: line number modulo their
// count.
func (m *memSystem) channel(addr uint64) int {
	line := addr >> m.lineShift
	if m.chanMask >= 0 {
		return int(line) & m.chanMask
	}
	return int(line % uint64(len(m.chanFreePs)))
}

// readLine services an L1 read miss for the line containing addr issued
// at nowPs. It returns the completion time, whether L2 hit, and whether a
// DRAM line transfer occurred.
func (m *memSystem) readLine(addr uint64, nowPs int64) (donePs int64, l2Hit, dram bool) {
	t := nowPs + m.l2LatencyPs
	if m.l2.access(addr) {
		return t, true, false
	}
	ch := m.channel(addr)
	start := t
	if m.chanFreePs[ch] > start {
		start = m.chanFreePs[ch]
	}
	m.chanFreePs[ch] = start + m.lineServicePs
	m.dramReadLines++
	return start + m.lineServicePs + m.dramLatencyPs, false, true
}

// writeLine services a write-through store of the line containing addr.
// Stores allocate in L2 (write-allocate) and consume DRAM bandwidth on an
// L2 miss. The returned time is when the store has been accepted by the
// memory system (drained from the store queue), not a visibility point —
// the simulator has no consumers of store data.
func (m *memSystem) writeLine(addr uint64, nowPs int64) (donePs int64, l2Hit, dram bool) {
	t := nowPs + m.l2LatencyPs
	if m.l2.access(addr) {
		return t, true, false
	}
	ch := m.channel(addr)
	start := t
	if m.chanFreePs[ch] > start {
		start = m.chanFreePs[ch]
	}
	m.chanFreePs[ch] = start + m.lineServicePs
	m.dramWriteLines++
	return start + m.lineServicePs, false, true
}

func (m *memSystem) clone() *memSystem {
	return &memSystem{
		l2:             m.l2.clone(),
		l2LatencyPs:    m.l2LatencyPs,
		dramLatencyPs:  m.dramLatencyPs,
		lineServicePs:  m.lineServicePs,
		lineShift:      m.lineShift,
		chanFreePs:     append([]int64(nil), m.chanFreePs...),
		chanMask:       m.chanMask,
		dramReadLines:  m.dramReadLines,
		dramWriteLines: m.dramWriteLines,
	}
}
