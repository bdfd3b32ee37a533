package gpusim

import (
	"testing"

	"ssmdvfs/internal/isa"
)

func TestMemAddrDeterministic(t *testing.T) {
	m := &isa.MemSpec{
		Base: 0x1000, FootprintBytes: 1 << 20, StrideBytes: 256,
		WarpStrideBytes: 4096, CoalescedLines: 4, Pattern: isa.PatternRandom,
	}
	a := memAddr(m, 3, 17, 2)
	b := memAddr(m, 3, 17, 2)
	if a != b {
		t.Fatalf("same inputs gave different addresses: %#x vs %#x", a, b)
	}
	if c := memAddr(m, 4, 17, 2); c == a {
		t.Fatal("different warps hashed to the same random address (suspicious)")
	}
}

func TestMemAddrStaysInFootprint(t *testing.T) {
	for _, pattern := range []isa.AccessPattern{isa.PatternSequential, isa.PatternStrided, isa.PatternRandom} {
		m := &isa.MemSpec{
			Base: 0x4000_0000, FootprintBytes: 1 << 16, StrideBytes: 512,
			WarpStrideBytes: 1024, CoalescedLines: 1, Pattern: pattern,
		}
		for warp := 0; warp < 8; warp++ {
			for iter := 0; iter < 1000; iter += 37 {
				a := memAddr(m, warp, iter, 0)
				if a < m.Base || a >= m.Base+m.FootprintBytes {
					t.Fatalf("pattern %v: address %#x outside [%#x,%#x)", pattern, a, m.Base, m.Base+m.FootprintBytes)
				}
			}
		}
	}
}

func TestSequentialAddressesAdvance(t *testing.T) {
	m := &isa.MemSpec{
		Base: 0, FootprintBytes: 1 << 20, StrideBytes: 256,
		CoalescedLines: 1, Pattern: isa.PatternSequential,
	}
	a0 := memAddr(m, 0, 0, 0)
	a1 := memAddr(m, 0, 1, 0)
	if a1-a0 != 256 {
		t.Fatalf("sequential stride = %d, want 256", a1-a0)
	}
}

func TestLineAddrsCount(t *testing.T) {
	for _, lines := range []int{1, 4, 8, 32} {
		m := &isa.MemSpec{
			Base: 0x1000, FootprintBytes: 1 << 20, StrideBytes: 64,
			CoalescedLines: lines, Pattern: isa.PatternSequential,
		}
		got := lineAddrs(nil, m, 0, 0, 0, 64)
		if len(got) != lines {
			t.Fatalf("CoalescedLines=%d produced %d addresses", lines, len(got))
		}
		// Sequential coalesced lines are contiguous.
		for i := 1; i < len(got); i++ {
			if got[i]-got[i-1] != 64 {
				t.Fatalf("coalesced lines not contiguous: %#x then %#x", got[i-1], got[i])
			}
		}
	}
}

func TestLineAddrsRandomStaysInFootprint(t *testing.T) {
	m := &isa.MemSpec{
		Base: 0x8000_0000, FootprintBytes: 1 << 18,
		CoalescedLines: 16, Pattern: isa.PatternRandom,
	}
	got := lineAddrs(nil, m, 5, 99, 1, 64)
	if len(got) != 16 {
		t.Fatalf("got %d lines, want 16", len(got))
	}
	for _, a := range got {
		if a < m.Base || a >= m.Base+m.FootprintBytes {
			t.Fatalf("random line %#x outside footprint", a)
		}
		if a%64 != 0 {
			t.Fatalf("random line %#x not line-aligned", a)
		}
	}
}

func TestWarpAdvanceRetires(t *testing.T) {
	prog := isa.Program{
		Body:       []isa.Instruction{{Op: isa.OpIAlu, Dst: 1}, {Op: isa.OpIAlu, Dst: 2}},
		Iterations: 3,
	}
	w := warp{body: prog.Body, iterations: prog.Iterations}
	steps := 0
	for !w.finished {
		w.advance()
		steps++
		if steps > 100 {
			t.Fatal("warp never finished")
		}
	}
	if steps != prog.Len() {
		t.Fatalf("warp retired after %d advances, want %d", steps, prog.Len())
	}
}

func TestSplitmix64Spread(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		h := splitmix64(i)
		if seen[h] {
			t.Fatalf("collision at input %d", i)
		}
		seen[h] = true
	}
}
