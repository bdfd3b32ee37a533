package core

import (
	"fmt"
	"math"
	"time"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/provenance"
)

// FaultDecide is the controller's fault-injection site, fired once per
// model decision (error kinds degrade that epoch to the fallback; panic
// kinds exercise the recovery path).
const FaultDecide = "core.decide"

// Controller is the SSMDVFS runtime (Fig. 1 of the paper). At every 10 µs
// epoch boundary it:
//
//  1. compares the epoch's actual instruction count against the
//     Calibrator's prediction made one epoch earlier and nudges the
//     effective performance-loss preset (self-calibration);
//  2. feeds the epoch's counters and the calibrated preset to the
//     Decision-maker to pick the next epoch's operating point;
//  3. asks the Calibrator — always with the *originally set* preset —
//     to predict the next epoch's instruction count for step 1.
//
// The controller keeps independent calibration state per cluster, since
// DVFS domains are per-cluster.
type Controller struct {
	model  *Model
	preset float64

	// Calibrate enables the self-calibration loop (disabled for the
	// "SSMDVFS without Calibrator" configuration in Fig. 4).
	calibrate bool

	// Gain is the calibration step size; Floor bounds how far the
	// effective preset may be tightened below the user preset; Deadband
	// is the relative prediction error tolerated before tightening (set
	// near the Calibrator's MAPE so model noise does not masquerade as a
	// slowdown).
	gain     float64
	floor    float64
	deadband float64

	state      []clusterCalib
	inferences int64

	// fallback, when set, answers epochs whose model step failed (panic,
	// non-finite counters, or injected fault); without it the controller
	// holds the cluster's current operating point. fallbacks counts the
	// epochs answered this way.
	fallback  gpusim.Controller
	injector  *faults.Injector
	fallbacks int64

	// inf is the controller's reusable inference context; Decide is
	// called from a single simulation goroutine, so one context serves
	// every cluster and exposes the last decision's logits for
	// provenance capture.
	inf *Inference

	// prov/mon, when set, receive a provenance record per decision and
	// fold it into the online model-quality statistics. Both are
	// nil-safe; rec is the per-controller scratch so recording does not
	// allocate.
	prov *provenance.Recorder
	mon  *provenance.Monitor
	rec  provenance.Record
}

type clusterCalib struct {
	effPreset float64
	predicted float64
	// predWarps is the active warp count when the prediction was made;
	// warps retiring mid-epoch legitimately shrink the instruction count
	// and must not read as "running too slowly".
	predWarps int
	hasPred   bool
	// level is the last level recorded for the cluster, valid once
	// hasLevel is set: the previous level a provenance record carries.
	hasLevel bool
	level    int32
}

// NewController builds the SSMDVFS controller for a GPU with the given
// cluster count. preset is the user's maximum acceptable performance loss
// (e.g. 0.10 for 10%).
func NewController(model *Model, preset float64, clusters int, calibrate bool) (*Controller, error) {
	if model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if preset < 0 {
		return nil, fmt.Errorf("core: preset must be non-negative, got %g", preset)
	}
	if clusters <= 0 {
		return nil, fmt.Errorf("core: clusters must be positive, got %d", clusters)
	}
	// Validate the model and build its inference backends up front: a
	// malformed model, or one whose declared backend cannot be built or
	// whose int8 quantization fails parity, must be rejected here, not
	// discovered as a panic in the decision loop.
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if err := model.EnsureBackends(); err != nil {
		return nil, err
	}
	c := &Controller{
		model:     model,
		preset:    preset,
		calibrate: calibrate,
		gain:      0.5,
		floor:     0,
		deadband:  0.05,
		state:     make([]clusterCalib, clusters),
		inf:       NewInference(model),
	}
	for i := range c.state {
		c.state[i].effPreset = preset
	}
	return c, nil
}

// Name implements gpusim.Controller.
func (c *Controller) Name() string {
	if c.calibrate {
		return "ssmdvfs"
	}
	return "ssmdvfs-nocal"
}

// Model returns the model the controller decides with.
func (c *Controller) Model() *Model { return c.model }

// Inferences returns how many combined model inferences the controller
// has performed (one decision + one calibration per epoch per cluster).
func (c *Controller) Inferences() int64 { return c.inferences }

// EffectivePreset returns cluster i's current calibrated preset (test and
// analysis hook).
func (c *Controller) EffectivePreset(i int) float64 { return c.state[i].effPreset }

// SetFallback installs a safety-net controller (typically the analytical
// PCSTALL baseline) consulted when the model path fails. Must be set
// before the first Decide call.
func (c *Controller) SetFallback(fb gpusim.Controller) { c.fallback = fb }

// SetFaults installs a fault injector firing at the FaultDecide site.
// Must be set before the first Decide call; nil (the default) is free.
func (c *Controller) SetFaults(inj *faults.Injector) { c.injector = inj }

// Fallbacks returns how many epochs were answered by the fallback (or by
// holding the current operating point when no fallback is set).
func (c *Controller) Fallbacks() int64 { return c.fallbacks }

// SetProvenance installs a flight recorder and/or model-quality monitor
// that receive one record per Decide call. Either may be nil; both nil
// (the default) keeps the decision path free of provenance work. Must be
// set before the first Decide call.
func (c *Controller) SetProvenance(rec *provenance.Recorder, mon *provenance.Monitor) {
	c.prov = rec
	c.mon = mon
}

// Decide implements gpusim.Controller.
func (c *Controller) Decide(stats gpusim.EpochStats) int {
	tracing := c.prov != nil || c.mon != nil
	var start time.Time
	if tracing {
		start = time.Now()
	}
	cs := &c.state[stats.Cluster]

	// Step 1: self-calibration against last epoch's prediction. The
	// prediction error is computed whenever a usable prediction exists —
	// it is the provenance ground truth even when calibration is off —
	// but only calibration acts on it.
	var relErr float64
	haveErr := false
	if cs.hasPred && cs.predicted > 0 && stats.WarpsActive > 0 {
		pred := cs.predicted
		// Scale the expectation down when warps retired since the
		// prediction: less work in flight means fewer instructions, not
		// a slower core.
		if cs.predWarps > 0 && stats.WarpsActive < cs.predWarps {
			pred *= float64(stats.WarpsActive) / float64(cs.predWarps)
		}
		actual := float64(stats.Instructions)
		relErr = (pred - actual) / pred
		haveErr = true
	}
	if c.calibrate && haveErr {
		if relErr > c.deadband {
			// Running slower than the Calibrator expected: tighten the
			// preset so the Decision-maker chooses a faster point.
			cs.effPreset -= c.gain * (relErr - c.deadband) * c.preset
			if cs.effPreset < c.floor {
				cs.effPreset = c.floor
			}
		} else if relErr < 0 {
			// Running at or ahead of prediction: relax back toward the
			// user preset.
			cs.effPreset += c.gain * (-relErr) * c.preset
			if cs.effPreset > c.preset {
				cs.effPreset = c.preset
			}
		}
	}

	feats := counters.FromStats(stats)

	// Steps 2+3: decision and prediction for the next epoch. A failed
	// model step (panic, non-finite counters, injected fault) must not
	// take the DVFS loop down with it — the epoch degrades to the
	// analytical fallback (or holds the current point) and the stale
	// prediction is dropped so self-calibration does not act on it.
	level, ok := c.modelDecide(cs, feats, stats.WarpsActive)
	if !ok {
		cs.hasPred = false
		c.fallbacks++
		reason := provenance.ReasonHold
		if c.fallback != nil {
			level = c.fallback.Decide(stats)
			reason = provenance.ReasonFallback
		} else {
			level = stats.Level
		}
		if tracing {
			c.record(stats, feats, level, reason, cs, relErr, haveErr, false, start)
		}
		return level
	}
	if tracing {
		c.record(stats, feats, level, provenance.ReasonModel, cs, relErr, haveErr, true, start)
	}
	return level
}

// record fills the controller's scratch provenance record for the epoch
// just decided and hands it to the recorder and monitor. modelOK reports
// whether the model path produced the decision (its inference scratch
// then holds this epoch's derived row and logits).
func (c *Controller) record(stats gpusim.EpochStats, feats []float64, level int,
	reason provenance.Reason, cs *clusterCalib, relErr float64, haveErr, modelOK bool, start time.Time) {
	rec := &c.rec
	rec.Cluster = int32(stats.Cluster)
	rec.Epoch = int32(stats.Epoch)
	rec.Level = int32(level)
	rec.PrevLevel, rec.HasPrevLevel = cs.level, cs.hasLevel
	cs.level, cs.hasLevel = rec.Level, true
	rec.Reason = reason
	rec.Preset = c.preset
	rec.EffPreset = cs.effPreset
	rec.PredErr, rec.HasPredErr = relErr, haveErr
	rec.SetRaw(feats)
	if modelOK {
		rec.PredInstr = cs.predicted
		n := len(c.model.FeatureIdx)
		rec.SetDerived(c.inf.BatchDerived(0)[:n])
		rec.SetLogits(c.inf.BatchLogits(0))
	} else {
		rec.PredInstr = 0
		rec.SetDerived(nil)
		rec.SetLogits(nil)
	}
	rec.LatencyNs = int64(time.Since(start))
	c.prov.Record(rec)
	c.mon.ObserveRecord(rec)
}

// modelDecide runs the model's decision and calibration inferences,
// converting panics and non-finite inputs into ok=false.
func (c *Controller) modelDecide(cs *clusterCalib, feats []float64, warps int) (level int, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	for _, f := range feats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, false
		}
	}
	if err := c.injector.Inject(FaultDecide); err != nil {
		return 0, false
	}

	// Step 2: decision for the next epoch.
	level = c.inf.DecideLevel(feats, cs.effPreset)

	// Step 3: prediction for the next epoch, always under the original
	// preset.
	cs.predicted = c.inf.PredictInstructions(feats, c.preset, level)
	cs.predWarps = warps
	cs.hasPred = true
	c.inferences++
	return level, true
}

var _ gpusim.Controller = (*Controller)(nil)
