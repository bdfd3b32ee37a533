package clockdomain

import "testing"

func TestDomainStartsAtDefault(t *testing.T) {
	d := NewDomain(TitanX(), DefaultIVR())
	if d.Level() != 5 {
		t.Fatalf("new domain level = %d, want 5 (default)", d.Level())
	}
	if d.Stalled(0) {
		t.Fatal("new domain should not be stalled")
	}
}

func TestIVRTransitionCosts(t *testing.T) {
	ivr := DefaultIVR()
	tbl := TitanX()
	same := tbl.Point(2)
	if got := ivr.TransitionPs(same, same); got != 0 {
		t.Fatalf("same-point transition = %d ps, want 0", got)
	}
	// Levels 0-3 share 1.0 V: frequency-only relock.
	if got := ivr.TransitionPs(tbl.Point(0), tbl.Point(3)); got != ivr.FrequencyRelockPs {
		t.Fatalf("freq-only transition = %d ps, want %d", got, ivr.FrequencyRelockPs)
	}
	// Level 3 (1.0 V) to 5 (1.155 V): voltage settle.
	if got := ivr.TransitionPs(tbl.Point(3), tbl.Point(5)); got != ivr.VoltageSettlePs {
		t.Fatalf("voltage transition = %d ps, want %d", got, ivr.VoltageSettlePs)
	}
}

func TestDomainSetLevel(t *testing.T) {
	d := NewDomain(TitanX(), DefaultIVR())

	if changed := d.SetLevel(5, 0); changed {
		t.Fatal("setting current level reported a transition")
	}
	if d.Transitions() != 0 {
		t.Fatalf("transitions = %d, want 0", d.Transitions())
	}

	now := int64(1_000_000)
	if changed := d.SetLevel(0, now); !changed {
		t.Fatal("level change not reported")
	}
	if d.Level() != 0 {
		t.Fatalf("level = %d, want 0", d.Level())
	}
	// 1.155 V → 1.0 V is a voltage transition.
	wantUntil := now + DefaultIVR().VoltageSettlePs
	if d.StallUntilPs() != wantUntil {
		t.Fatalf("stall until %d, want %d", d.StallUntilPs(), wantUntil)
	}
	if !d.Stalled(now) {
		t.Fatal("domain should be stalled right after a voltage transition")
	}
	if d.Stalled(wantUntil) {
		t.Fatal("domain should not be stalled once the settle time passes")
	}
	if d.Transitions() != 1 {
		t.Fatalf("transitions = %d, want 1", d.Transitions())
	}
}

func TestDomainSetLevelClamps(t *testing.T) {
	d := NewDomain(TitanX(), DefaultIVR())
	d.SetLevel(-3, 0)
	if d.Level() != 0 {
		t.Fatalf("level = %d, want clamped 0", d.Level())
	}
	d.SetLevel(99, 0)
	if d.Level() != 5 {
		t.Fatalf("level = %d, want clamped 5", d.Level())
	}
}

func TestDomainPeriodTracksLevel(t *testing.T) {
	d := NewDomain(TitanX(), DefaultIVR())
	if d.PeriodPs() != d.table.Point(5).PeriodPs() {
		t.Fatal("period does not match default point")
	}
	d.SetLevel(0, 0)
	if d.PeriodPs() != d.table.Point(0).PeriodPs() {
		t.Fatal("period does not match level 0 after transition")
	}
}
