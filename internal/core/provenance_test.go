package core

import (
	"math"
	"slices"
	"testing"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/kernels"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// TestControllerProvenanceRecords drives the controller through model,
// fallback, and hold epochs and checks that every decision left a full
// provenance record behind.
func TestControllerProvenanceRecords(t *testing.T) {
	m := trainedModel(t, 61)
	ctrl, err := NewController(m, 0.10, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.SetFallback(pcstallFallback(t, 0.10, 1))
	inj := faults.New(9)
	if err := inj.Arm(FaultDecide, faults.Spec{Kind: faults.KindError, Every: 4}); err != nil {
		t.Fatal(err)
	}
	ctrl.SetFaults(inj)

	reg := telemetry.NewRegistry()
	rec := provenance.NewRecorder(64)
	mon := provenance.NewMonitor(reg, provenance.MonitorOptions{Window: 16})
	names, mean, std := m.TrainingStats()
	mon.SetTrainingStats(names, mean, std)
	ctrl.SetProvenance(rec, mon)

	const epochs = 12
	for epoch := 0; epoch < epochs; epoch++ {
		// From epoch 5 on the kernel slows down, so calibration tightens
		// the effective preset below the set one.
		instr := int64(20000)
		if epoch >= 5 {
			instr = 10
		}
		s := statsWith(0, instr, epoch%2 == 0)
		s.Epoch = epoch
		ctrl.Decide(s)
	}

	recs := rec.Snapshot(nil)
	if len(recs) != epochs {
		t.Fatalf("recorded %d decisions, want %d", len(recs), epochs)
	}
	var modelN, fallbackN, calibrated int
	n := m.NumFeatures()
	for i, r := range recs {
		if r.Epoch != int32(i) || r.Cluster != 0 {
			t.Fatalf("record %d has epoch/cluster %d/%d", i, r.Epoch, r.Cluster)
		}
		if r.Preset != 0.10 {
			t.Fatalf("record %d preset = %g", i, r.Preset)
		}
		if int(r.NumRaw) == 0 {
			t.Fatalf("record %d has no raw counters", i)
		}
		switch r.Reason {
		case provenance.ReasonModel:
			modelN++
			if int(r.NumDerived) != n || int(r.NumLogits) != m.Levels {
				t.Fatalf("record %d: derived/logits %d/%d, want %d/%d",
					i, r.NumDerived, r.NumLogits, n, m.Levels)
			}
			if !(r.PredInstr > 0) {
				t.Fatalf("record %d: model decision with PredInstr %g", i, r.PredInstr)
			}
			// The record carries the decision head's row and logits, not
			// the calibrator's: the selected raw counters, and the logits
			// of that row at the epoch's effective preset.
			derived := counters.Select(r.RawFeatures(), m.FeatureIdx)
			if got := r.Derived[:r.NumDerived]; !slices.Equal(got, derived) {
				t.Fatalf("record %d: derived %v, selected raw features %v", i, got, derived)
			}
			want := m.Decision.Forward(m.DecisionScaler.Transform(append(derived, r.EffPreset)))
			if got := r.Logits[:r.NumLogits]; !slices.Equal(got, want) {
				t.Fatalf("record %d: logits %v, decision head at effective preset %g gives %v", i, got, r.EffPreset, want)
			}
			if r.EffPreset != r.Preset {
				calibrated++
			}
		case provenance.ReasonFallback:
			fallbackN++
			if r.NumDerived != 0 || r.NumLogits != 0 {
				t.Fatalf("record %d: fallback decision carries model internals", i)
			}
		default:
			t.Fatalf("record %d: unexpected reason %v", i, r.Reason)
		}
	}
	if fallbackN != 3 || modelN != epochs-3 {
		t.Fatalf("model/fallback = %d/%d, want %d/3", modelN, fallbackN, epochs-3)
	}
	if calibrated == 0 {
		t.Fatal("no model epoch ran at a calibrated preset: the logits check cannot tell the two heads' presets apart")
	}

	// Epoch 1 follows a clean model epoch, so its record must carry the
	// realized prediction error of epoch 0's forecast.
	if !recs[1].HasPredErr {
		t.Fatal("record 1 is missing the realized prediction error")
	}
	if math.IsNaN(recs[1].PredErr) || math.IsInf(recs[1].PredErr, 0) {
		t.Fatalf("record 1 PredErr = %g", recs[1].PredErr)
	}

	snap := reg.Snapshot()
	id := telemetry.MetricID("prov_decisions_total", "reason", provenance.ReasonFallback.String())
	if got := snap.Counters[id]; got != 3 {
		t.Fatalf("%s = %d, want 3", id, got)
	}
	if s := mon.DriftState(); s.ErrSamples == 0 {
		t.Fatal("monitor folded no prediction-error samples")
	}
}

// TestControllerFlipRateOverKernel: over one simulated kernel, the
// monitor's prov_level_flip_rate, counted from the previous level the
// controller stamps per cluster, equals a recount from the recorder's
// records, each cluster's level compared with the one before it.
func TestControllerFlipRateOverKernel(t *testing.T) {
	m := trainedModel(t, 63)
	cfg := gpusim.SmallConfig()
	ctrl, err := NewController(m, 0.10, cfg.Clusters, true)
	if err != nil {
		t.Fatal(err)
	}
	const window = 1 << 14 // holds every transition, so the gauge is the whole kernel's rate
	reg := telemetry.NewRegistry()
	rec := provenance.NewRecorder(window)
	ctrl.SetProvenance(rec, provenance.NewMonitor(reg, provenance.MonitorOptions{Window: window}))
	spec, err := kernels.ByName("rodinia.srad")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := gpusim.New(cfg, spec.Build(1))
	if err != nil {
		t.Fatal(err)
	}
	sim.SetController(ctrl)
	if res := sim.Run(gpusim.DefaultMaxRunPs); !res.Completed {
		t.Fatal("kernel incomplete")
	}

	recs := rec.Snapshot(nil)
	if rec.Head() > uint64(rec.Cap()) || len(recs) <= cfg.Clusters {
		t.Fatalf("%d records of %d written: the recount needs all of them, and more than one a cluster", len(recs), rec.Head())
	}
	last := make(map[int32]int32)
	var transitions, flips int
	for _, r := range recs {
		if prev, seen := last[r.Cluster]; seen {
			transitions++
			if prev != r.Level {
				flips++
			}
		}
		last[r.Cluster] = r.Level
	}
	if flips == 0 || flips == transitions {
		t.Fatalf("%d flips in %d transitions: the kernel must both hold and change levels", flips, transitions)
	}
	want := float64(flips) / float64(transitions)
	if got := reg.Snapshot().Gauges["prov_level_flip_rate"]; got != want {
		t.Fatalf("prov_level_flip_rate = %g, recount from %d records = %d/%d = %g", got, len(recs), flips, transitions, want)
	}
}

// TestControllerProvenanceDisabledMatches pins that installing no
// provenance hooks leaves decisions identical to a provenance-enabled
// twin — recording observes, never perturbs.
func TestControllerProvenanceDisabledMatches(t *testing.T) {
	m := trainedModel(t, 62)
	mk := func(withProv bool) *Controller {
		ctrl, err := NewController(m, 0.10, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		if withProv {
			ctrl.SetProvenance(provenance.NewRecorder(32),
				provenance.NewMonitor(telemetry.NewRegistry(), provenance.MonitorOptions{}))
		}
		return ctrl
	}
	plain, traced := mk(false), mk(true)
	for epoch := 0; epoch < 20; epoch++ {
		s := statsWith(0, 15000+int64(epoch)*500, epoch%3 != 0)
		s.Epoch = epoch
		if a, b := plain.Decide(s), traced.Decide(s); a != b {
			t.Fatalf("epoch %d: plain=%d traced=%d", epoch, a, b)
		}
	}
	if a, b := plain.EffectivePreset(0), traced.EffectivePreset(0); a != b {
		t.Fatalf("effective presets diverged: %g vs %g", a, b)
	}
}

func TestProvenanceHeader(t *testing.T) {
	model := trainedModel(t, 62)
	hdr := model.ProvenanceHeader()
	names, mean, std := model.TrainingStats()
	if len(hdr.Features) == 0 || len(hdr.Features) != len(names) {
		t.Fatalf("header features = %v", hdr.Features)
	}
	if len(hdr.TrainMean) != len(mean) || len(hdr.TrainStd) != len(std) {
		t.Fatal("header training stats misaligned")
	}
	if hdr.Levels != model.Levels || hdr.ModelParams != model.Params() {
		t.Fatalf("header model attribution = %d levels %d params", hdr.Levels, hdr.ModelParams)
	}
	if hdr.Build["go"] == "" {
		t.Fatal("header missing build info")
	}
}
