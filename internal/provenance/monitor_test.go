package provenance

import (
	"math"
	"reflect"
	"testing"

	"ssmdvfs/internal/telemetry"
)

func modelRecord(cluster, level int, derived []float64) Record {
	rec := Record{Cluster: int32(cluster), Level: int32(level), Reason: ReasonModel}
	rec.SetDerived(derived)
	return rec
}

func TestMonitorPredictionError(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMonitor(reg, MonitorOptions{Window: 4, MAPEThreshold: -1, DriftZThreshold: -1})
	errs := []float64{0.1, -0.2, 0.3, -0.4}
	for _, e := range errs {
		rec := Record{Reason: ReasonModel, PredErr: e, HasPredErr: true}
		m.ObserveRecord(&rec)
	}
	s := m.DriftState()
	if s.ErrSamples != 4 {
		t.Fatalf("err samples = %d, want 4", s.ErrSamples)
	}
	if want := (0.1 + 0.2 + 0.3 + 0.4) / 4; math.Abs(s.MAPE-want) > 1e-12 {
		t.Fatalf("MAPE = %g, want %g", s.MAPE, want)
	}
	if want := (0.1 - 0.2 + 0.3 - 0.4) / 4; math.Abs(s.Bias-want) > 1e-12 {
		t.Fatalf("bias = %g, want %g", s.Bias, want)
	}
	// Window rolls: four more samples of 0.5 evict everything.
	for i := 0; i < 4; i++ {
		rec := Record{Reason: ReasonModel, PredErr: 0.5, HasPredErr: true}
		m.ObserveRecord(&rec)
	}
	s = m.DriftState()
	if math.Abs(s.MAPE-0.5) > 1e-12 || math.Abs(s.Bias-0.5) > 1e-12 {
		t.Fatalf("rolled window MAPE/bias = %g/%g, want 0.5/0.5", s.MAPE, s.Bias)
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["prov_pred_mape"]; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("prov_pred_mape gauge = %g, want 0.5", got)
	}
}

// TestMonitorFlipRate: the monitor counts a flip from the previous level
// the producer stamped into the record, and a record without one (an
// identity's first decision) is no transition.
func TestMonitorFlipRate(t *testing.T) {
	m := NewMonitor(telemetry.NewRegistry(), MonitorOptions{Window: 8})
	levels := []int{2, 2, 3, 3, 3, 1} // flips at 3 and 1 → 2 flips in 5 transitions
	for i, l := range levels {
		rec := modelRecord(0, l, nil)
		if i > 0 {
			rec.PrevLevel, rec.HasPrevLevel = int32(levels[i-1]), true
		}
		m.ObserveRecord(&rec)
	}
	if got, want := m.DriftState().FlipRate, 2.0/5.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("flip rate = %g, want %g", got, want)
	}
	rec := modelRecord(1, 5, nil)
	m.ObserveRecord(&rec)
	if got, want := m.DriftState().FlipRate, 2.0/5.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("flip rate after a record without a previous level = %g, want %g", got, want)
	}
}

// TestMonitorDriftGaugesAndEvents: a feature shifted past the z
// threshold moves its gauge, and DriftState lists it as drifting once
// the window has filled with shifted rows.
func TestMonitorDriftGaugesAndEvents(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMonitor(reg, MonitorOptions{Window: 8, DriftZThreshold: 2, MAPEThreshold: -1})
	m.SetTrainingStats([]string{"ipc", "ppc_total_w"}, []float64{2.0, 5.0}, []float64{0.5, 1.0})

	// Feed on-distribution rows: z stays near 0.
	for i := 0; i < 8; i++ {
		rec := modelRecord(0, 1, []float64{2.0, 5.0})
		m.ObserveRecord(&rec)
	}
	snap := reg.Snapshot()
	id := telemetry.MetricID("prov_feature_mean_z", "feature", "ipc")
	if z := snap.Gauges[id]; math.Abs(z) > 1e-9 {
		t.Fatalf("on-distribution z = %g, want 0", z)
	}
	if st := m.DriftState(); len(st.Drifting) != 0 {
		t.Fatalf("on-distribution traffic drifts: %+v", st)
	}

	// Shift feature 0 by 4σ: z crosses the threshold once the window
	// fills with shifted rows.
	for i := 0; i < 8; i++ {
		rec := modelRecord(0, 1, []float64{4.0, 5.0})
		m.ObserveRecord(&rec)
	}
	snap = reg.Snapshot()
	if z := snap.Gauges[id]; math.Abs(z-4.0) > 1e-9 {
		t.Fatalf("shifted z = %g, want 4", z)
	}
	if st := m.DriftState(); len(st.Drifting) != 1 || st.Drifting[0] != "ipc" || st.MAPEHigh {
		t.Fatalf("shifted drift state = %+v, want ipc drifting and MAPE disabled", st)
	}
}

// TestMonitorMAPEThresholdLevel: the rolling MAPE is high while a full
// window sits above the threshold, and a negative threshold disables it.
func TestMonitorMAPEThresholdLevel(t *testing.T) {
	m := NewMonitor(telemetry.NewRegistry(), MonitorOptions{Window: 4, MAPEThreshold: 0.2, DriftZThreshold: -1})
	off := NewMonitor(telemetry.NewRegistry(), MonitorOptions{Window: 4, MAPEThreshold: -1, DriftZThreshold: -1})
	for i := 0; i < 4; i++ {
		rec := Record{Reason: ReasonModel, PredErr: 0.5, HasPredErr: true}
		m.ObserveRecord(&rec)
		off.ObserveRecord(&rec)
		if st := m.DriftState(); st.MAPEHigh != (i == 3) {
			t.Fatalf("after %d samples MAPEHigh = %v, want it on the full window only", i+1, st.MAPEHigh)
		}
	}
	if st := off.DriftState(); st.MAPEHigh || math.Abs(st.MAPE-0.5) > 1e-12 {
		t.Fatalf("disabled threshold state = %+v, want MAPE 0.5 and never high", st)
	}
	// Staying above the threshold keeps it high; low samples clear it once
	// they pull the window mean under the threshold (the third: 0.1875).
	for i, e := range []float64{0.6, 0.05, 0.05, 0.05, 0.05} {
		rec := Record{Reason: ReasonModel, PredErr: e, HasPredErr: true}
		m.ObserveRecord(&rec)
		if st := m.DriftState(); st.MAPEHigh != (i < 3) {
			t.Fatalf("sample %d (%g): MAPEHigh = %v at MAPE %g", i, e, st.MAPEHigh, st.MAPE)
		}
	}
}

func TestMonitorReasonCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMonitor(reg, MonitorOptions{})
	for _, reason := range []Reason{ReasonModel, ReasonModel, ReasonFallback, ReasonRejected} {
		rec := Record{Reason: reason}
		m.ObserveRecord(&rec)
	}
	snap := reg.Snapshot()
	for reason, want := range map[Reason]int64{ReasonModel: 2, ReasonFallback: 1, ReasonRejected: 1} {
		id := telemetry.MetricID("prov_decisions_total", "reason", reason.String())
		if got := snap.Counters[id]; got != want {
			t.Fatalf("%s = %d, want %d", id, got, want)
		}
	}
}

func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	rec := Record{Reason: ReasonModel, HasPredErr: true, PredErr: 0.1}
	m.ObserveRecord(&rec) // must not panic
	m.SetTrainingStats([]string{"x"}, []float64{0}, []float64{1})
	if st := m.DriftState(); !reflect.DeepEqual(st, DriftState{}) {
		t.Fatalf("nil monitor state = %+v, want zero", st)
	}
}

// TestMonitorObserveNoAllocsSteadyState guards the hot-path contract:
// folding a record allocates nothing.
func TestMonitorObserveNoAllocsSteadyState(t *testing.T) {
	m := NewMonitor(telemetry.NewRegistry(), MonitorOptions{Window: 64})
	m.SetTrainingStats([]string{"a", "b"}, []float64{0, 0}, []float64{1, 1})
	rec := modelRecord(0, 1, []float64{0.5, 0.5})
	rec.HasPredErr = true
	rec.PredErr = 0.05
	m.ObserveRecord(&rec)
	allocs := testing.AllocsPerRun(500, func() {
		m.ObserveRecord(&rec)
	})
	if allocs != 0 {
		t.Fatalf("ObserveRecord allocates %.1f objects/op, want 0", allocs)
	}
}

func TestMonitorDriftStateLevelTriggered(t *testing.T) {
	m := NewMonitor(telemetry.NewRegistry(), MonitorOptions{Window: 4, MAPEThreshold: 0.2, DriftZThreshold: 2})
	m.SetTrainingStats([]string{"ipc", "ppc_total_w"}, []float64{2.0, 5.0}, []float64{0.5, 1.0})

	if st := m.DriftState(); st.Any() {
		t.Fatalf("fresh monitor reports drift: %+v", st)
	}

	// Partial windows never assert: three high-error, shifted rows.
	for i := 0; i < 3; i++ {
		rec := modelRecord(0, 1, []float64{4.0, 5.0})
		rec.HasPredErr, rec.PredErr = true, 0.5
		m.ObserveRecord(&rec)
	}
	if st := m.DriftState(); st.Any() {
		t.Fatalf("partial window asserted drift: %+v", st)
	}

	// A fourth row fills both windows: now the state is visible to a
	// poller, however late it attaches, for as long as the condition holds.
	rec := modelRecord(0, 1, []float64{4.0, 5.0})
	rec.HasPredErr, rec.PredErr = true, 0.5
	m.ObserveRecord(&rec)
	st := m.DriftState()
	if !st.MAPEHigh || math.Abs(st.MAPE-0.5) > 1e-12 || st.ErrSamples != 4 {
		t.Fatalf("MAPE state = %+v", st)
	}
	if len(st.Drifting) != 1 || st.Drifting[0] != "ipc" {
		t.Fatalf("drifting features = %v", st.Drifting)
	}
	if len(st.DriftZ) != 1 || math.Abs(st.DriftZ[0]-4.0) > 1e-9 {
		t.Fatalf("drift z = %v, want [4]", st.DriftZ)
	}
	if st.WorstFeature != "ipc" || math.Abs(st.WorstZ-4.0) > 1e-9 {
		t.Fatalf("worst = %s z=%g, want ipc z=4", st.WorstFeature, st.WorstZ)
	}
	if !st.Any() {
		t.Fatal("Any() = false with MAPE high and a drifting feature")
	}

	// Recovery deasserts the level.
	for i := 0; i < 4; i++ {
		rec := modelRecord(0, 1, []float64{2.0, 5.0})
		rec.HasPredErr, rec.PredErr = true, 0.01
		m.ObserveRecord(&rec)
	}
	if st := m.DriftState(); st.Any() {
		t.Fatalf("recovered monitor still asserts: %+v", st)
	}

	// Nil monitor is a zero state.
	var nilMon *Monitor
	if st := nilMon.DriftState(); st.Any() {
		t.Fatal("nil monitor asserts drift")
	}
}
