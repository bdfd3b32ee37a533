package ledger

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ssmdvfs/internal/telemetry"
)

// assertLintClean writes the registry's Prometheus exposition and fails
// on any promlint finding.
func assertLintClean(t *testing.T, reg *telemetry.Registry) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if errs := telemetry.LintProm(bytes.NewReader(buf.Bytes())); len(errs) != 0 {
		t.Fatalf("exposition fails promlint: %v\n%s", errs, buf.String())
	}
}

func TestParseRules(t *testing.T) {
	if rules, err := ParseRules(""); err != nil || len(rules) != 3 {
		t.Fatalf("empty spec: rules=%v err=%v, want the 3 defaults", rules, err)
	}
	if rules, err := ParseRules("none"); err != nil || rules != nil {
		t.Fatalf("none spec: rules=%v err=%v, want nil", rules, err)
	}
	rules, err := ParseRules("burn>1.2@32/100; stale>10")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(rules))
	}
	if r := rules[0]; r.Kind != KindBurn || r.Threshold != 1.2 || r.Windows != 32 || r.MinDecisions != 100 {
		t.Fatalf("burn rule = %+v", r)
	}
	if r := rules[1]; r.Kind != KindStale || r.Threshold != 10 || r.Windows != defaultRuleWindows {
		t.Fatalf("stale rule = %+v", r)
	}
	for _, bad := range []string{"burn", "frobnicate>1", "burn>x", "burn>1@x", "burn>1@4/x"} {
		if _, err := ParseRules(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
	// A NaN threshold leaves an AlertState json cannot encode; ±Inf a
	// rule that can never fire or always does. The refusal names the
	// clause.
	for _, bad := range []string{"burn>NaN", "regress>+Inf", "stale>-Inf@4"} {
		if _, err := ParseRules("burn>1.5;" + bad); err == nil || !strings.Contains(err.Error(), bad) {
			t.Fatalf("spec %q: err = %v, want a refusal naming the clause", bad, err)
		}
	}
}

// ringOf builds a ring snapshot of consecutive windows with a constant
// per-window count and sum.
func ringOf(start int64, n int, count, sum int64) []telemetry.RingPoint {
	pts := make([]telemetry.RingPoint, n)
	for i := range pts {
		pts[i] = telemetry.RingPoint{Index: start + int64(i), Count: count, Sum: sum}
	}
	return pts
}

func alertHarness(t *testing.T, spec string) (*Alerts, *telemetry.Registry) {
	t.Helper()
	rules, err := ParseRules(spec)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	return NewAlerts(rules, reg), reg
}

func gaugeValue(reg *telemetry.Registry, name, rule string) float64 {
	return reg.Gauge(name, "rule", rule).Value()
}

func TestBurnAlertFiresAndClears(t *testing.T) {
	a, reg := alertHarness(t, "burn>1.5@4/10")
	now := time.Unix(5000, 0)

	// Recent windows spend 3× the requested budget → fire.
	hot := Snapshot{
		LossRing:   ringOf(100, 4, 25, 300_000),
		PresetRing: ringOf(100, 4, 25, 100_000),
	}
	states := a.Eval(now, hot, nil)
	if !states[0].Firing || states[0].Value < 2.9 || states[0].Value > 3.1 {
		t.Fatalf("hot burn state = %+v, want firing at ~3.0", states[0])
	}
	if gaugeValue(reg, "alert_firing", "burn") != 1 {
		t.Fatal("alert_firing{rule=burn} not set to 1")
	}
	if reg.Counter("alert_transitions_total", "rule", "burn").Load() != 1 {
		t.Fatal("firing transition not counted")
	}

	// Spending back under budget → clear.
	cool := Snapshot{
		LossRing:   ringOf(104, 4, 25, 50_000),
		PresetRing: ringOf(104, 4, 25, 100_000),
	}
	states = a.Eval(now.Add(time.Second), cool, nil)
	if states[0].Firing {
		t.Fatalf("cool burn state still firing: %+v", states[0])
	}
	if gaugeValue(reg, "alert_firing", "burn") != 0 {
		t.Fatal("alert_firing{rule=burn} not cleared")
	}
	if reg.Counter("alert_transitions_total", "rule", "burn").Load() != 2 {
		t.Fatal("clear transition not counted")
	}

	// Re-evaluating an unchanged state must not re-transition.
	a.Eval(now.Add(2*time.Second), cool, nil)
	if reg.Counter("alert_transitions_total", "rule", "burn").Load() != 2 {
		t.Fatal("steady state produced a spurious transition")
	}
}

func TestBurnAlertFallsBackToLifetimeTotals(t *testing.T) {
	a, _ := alertHarness(t, "burn>1.5@4/10")
	// No rings (e.g. merged snapshot with incomparable windows) but
	// lifetime totals show 2× burn.
	merged := Snapshot{Decisions: 100, PerfLossPpmSum: 200_000, PresetPpmSum: 100_000}
	states := a.Eval(time.Unix(0, 0), merged, nil)
	if !states[0].Firing || states[0].Value != 2 {
		t.Fatalf("lifetime-fallback burn = %+v, want firing at 2.0", states[0])
	}
}

func TestBurnAlertRespectsMinDecisions(t *testing.T) {
	a, _ := alertHarness(t, "burn>1.5@4/1000")
	hot := Snapshot{
		LossRing:   ringOf(0, 4, 5, 300_000),
		PresetRing: ringOf(0, 4, 5, 100_000),
	}
	if states := a.Eval(time.Unix(0, 0), hot, nil); states[0].Firing {
		t.Fatalf("burn fired on %d decisions with MinDecisions=1000", 4*5)
	}
}

func TestRegressAlertFiresAndClears(t *testing.T) {
	a, reg := alertHarness(t, "regress>0.5@4/10")
	now := time.Unix(0, 0)

	// Baseline windows saved 1000 pJ/decision; recent windows save 100.
	regressed := Snapshot{
		SavedRing: append(ringOf(0, 8, 10, 10_000), ringOf(8, 4, 10, 1_000)...),
	}
	states := a.Eval(now, regressed, nil)
	if !states[0].Firing || states[0].Value < 0.89 || states[0].Value > 0.91 {
		t.Fatalf("regressed state = %+v, want firing at ~0.9", states[0])
	}
	if gaugeValue(reg, "alert_firing", "regress") != 1 {
		t.Fatal("alert_firing{rule=regress} not set")
	}

	// Savings recover → clear.
	healthy := Snapshot{
		SavedRing: append(ringOf(0, 8, 10, 10_000), ringOf(8, 4, 10, 9_500)...),
	}
	if states := a.Eval(now.Add(time.Second), healthy, nil); states[0].Firing {
		t.Fatalf("healthy state still firing: %+v", states[0])
	}
	if gaugeValue(reg, "alert_firing", "regress") != 0 {
		t.Fatal("alert_firing{rule=regress} not cleared")
	}
}

func TestRegressAlertNeedsBaseline(t *testing.T) {
	a, _ := alertHarness(t, "regress>0.5@8/10")
	// Only 4 windows with an 8-window recent period: everything is
	// "recent", there is no baseline to regress against.
	s := Snapshot{SavedRing: ringOf(0, 4, 10, 100)}
	if states := a.Eval(time.Unix(0, 0), s, nil); states[0].Firing {
		t.Fatalf("regress fired without a baseline: %+v", states[0])
	}
}

func TestStaleAlertFiresAndClears(t *testing.T) {
	a, reg := alertHarness(t, "stale>10")
	now := time.Unix(10_000, 0)

	reps := []ReplicaLedger{
		{Addr: "127.0.0.1:1", LastAdvanceUnix: now.Unix() - 2},
		{Addr: "127.0.0.1:2", LastAdvanceUnix: now.Unix() - 60, Err: "connection refused"},
	}
	states := a.Eval(now, Snapshot{}, reps)
	if !states[0].Firing || states[0].Value != 60 {
		t.Fatalf("stale state = %+v, want firing at 60", states[0])
	}
	if gaugeValue(reg, "alert_value", "stale") != 60 {
		t.Fatal("alert_value{rule=stale} not set")
	}
	if reg.Counter("alert_transitions_total", "rule", "stale").Load() != 1 {
		t.Fatal("firing transition not counted")
	}
	if detail := states[0].Detail; detail == "" {
		t.Fatal("stale alert has no detail")
	}

	// The replica comes back → clear.
	reps[1].LastAdvanceUnix = now.Unix() - 1
	reps[1].Err = ""
	if states := a.Eval(now.Add(time.Second), Snapshot{}, reps); states[0].Firing {
		t.Fatalf("recovered state still firing: %+v", states[0])
	}
	if gaugeValue(reg, "alert_firing", "stale") != 0 {
		t.Fatal("alert_firing{rule=stale} not cleared")
	}
}

func TestNilAlertsEval(t *testing.T) {
	var a *Alerts
	if got := a.Eval(time.Unix(0, 0), Snapshot{}, nil); got != nil {
		t.Fatalf("nil Alerts.Eval = %v", got)
	}
}

func TestAlertsExpositionLintClean(t *testing.T) {
	a, reg := alertHarness(t, "")
	a.Eval(time.Unix(0, 0), Snapshot{Decisions: 100, PerfLossPpmSum: 400_000, PresetPpmSum: 100_000}, nil)
	assertLintClean(t, reg)
}
