package gpusim

import "testing"

func testMemConfig() Config {
	c := SmallConfig()
	return c
}

func TestMemReadMissGoesToDRAM(t *testing.T) {
	m := newMemSystem(testMemConfig())
	now := int64(1000)
	done, l2Hit, dram := m.readLine(0x10000, now)
	if l2Hit {
		t.Fatal("cold L2 must miss")
	}
	if !dram {
		t.Fatal("L2 miss must reach DRAM")
	}
	want := now + m.l2LatencyPs + m.lineServicePs + m.dramLatencyPs
	if done != want {
		t.Fatalf("completion %d, want %d", done, want)
	}
	if m.dramReadLines != 1 {
		t.Fatalf("dramReadLines = %d, want 1", m.dramReadLines)
	}
}

func TestMemReadHitAfterFill(t *testing.T) {
	m := newMemSystem(testMemConfig())
	m.readLine(0x10000, 0) // fills L2
	done, l2Hit, dram := m.readLine(0x10000, 1_000_000)
	if !l2Hit || dram {
		t.Fatalf("second read l2Hit=%v dram=%v, want hit without DRAM", l2Hit, dram)
	}
	if done != 1_000_000+m.l2LatencyPs {
		t.Fatalf("hit completion %d, want %d", done, 1_000_000+m.l2LatencyPs)
	}
}

func TestMemBandwidthQueueing(t *testing.T) {
	m := newMemSystem(testMemConfig())
	nchan := len(m.chanFreePs)
	// Two misses to lines on the same channel at the same instant: the
	// second must wait a full line-service slot behind the first.
	a := uint64(0)
	b := a + uint64(nchan)*64 // same channel, different line and set
	d1, _, _ := m.readLine(a, 0)
	d2, _, _ := m.readLine(b, 0)
	if d2-d1 != m.lineServicePs {
		t.Fatalf("second miss finished %d ps after first, want %d", d2-d1, m.lineServicePs)
	}
}

func TestMemChannelsParallel(t *testing.T) {
	m := newMemSystem(testMemConfig())
	// Misses on different channels at the same instant do not queue.
	d1, _, _ := m.readLine(0, 0)
	d2, _, _ := m.readLine(64, 0) // next line → next channel
	if d1 != d2 {
		t.Fatalf("different channels should complete together: %d vs %d", d1, d2)
	}
}

// TestMemChannelIsLineModuloChannels: the mask taken for a power-of-two
// channel count interleaves lines exactly as the division does for others.
func TestMemChannelIsLineModuloChannels(t *testing.T) {
	for _, n := range []int{1, 3, 4, 6, 8} {
		cfg := testMemConfig()
		cfg.DRAMChannels = n
		m := newMemSystem(cfg)
		for _, addr := range []uint64{0, 64, 5 * 64, 1<<40 + 7*64 + 13, 1<<63 | 3<<6} {
			if got, want := m.channel(addr), int((addr>>6)%uint64(n)); got != want {
				t.Fatalf("%d channels: line of %#x on channel %d, want %d", n, addr, got, want)
			}
		}
	}
}

func TestMemWriteThrough(t *testing.T) {
	m := newMemSystem(testMemConfig())
	done, l2Hit, dram := m.writeLine(0x2000, 0)
	if l2Hit || !dram {
		t.Fatalf("cold write l2Hit=%v dram=%v", l2Hit, dram)
	}
	if m.dramWriteLines != 1 {
		t.Fatalf("dramWriteLines = %d, want 1", m.dramWriteLines)
	}
	// Write-allocate: the following read hits L2.
	_, l2Hit, _ = m.readLine(0x2000, done)
	if !l2Hit {
		t.Fatal("write-allocated line must hit on read")
	}
}

func TestMemCloneIndependence(t *testing.T) {
	m := newMemSystem(testMemConfig())
	m.readLine(0x3000, 0)
	cp := m.clone()
	cp.readLine(0x9000, 0)
	if m.l2.contains(0x9000) {
		t.Fatal("clone read leaked into original L2")
	}
	if cp.dramReadLines != 2 || m.dramReadLines != 1 {
		t.Fatalf("dram counts original=%d clone=%d, want 1/2", m.dramReadLines, cp.dramReadLines)
	}
}
