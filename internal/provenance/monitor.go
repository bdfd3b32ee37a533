package provenance

import (
	"math"
	"sync"

	"ssmdvfs/internal/telemetry"
)

// MonitorOptions tunes the online model-quality monitor; zero values
// take the defaults.
type MonitorOptions struct {
	// Window is the rolling-window length, in observations, shared by the
	// prediction-error, flip-rate, and feature-drift statistics
	// (default 256).
	Window int
	// MAPEThreshold is the rolling MAPE (as a fraction, e.g. 0.25) above
	// which a threshold-crossing event is logged; 0 takes the default
	// 0.25, negative disables the event.
	MAPEThreshold float64
	// DriftZThreshold is the per-feature |z| (window mean shift in
	// training-σ units) above which a drift event is logged; 0 takes the
	// default 3, negative disables.
	DriftZThreshold float64
	// Logger receives threshold-crossing events; nil is silent.
	Logger *telemetry.Logger
	// OnThreshold, when set, is called once per threshold crossing (in
	// either direction) with the event that fired. It is invoked after the
	// monitor's lock is released, so the callback may call back into the
	// monitor (Stats, DriftState) without deadlocking; it must still be
	// fast, since it runs on the decision path that observed the record.
	OnThreshold func(ThresholdEvent)
}

// ThresholdEvent describes one threshold crossing: Kind is "mape" or
// "drift", Feature names the drifting feature (drift events only), Value
// is the statistic that crossed, and High says which direction (true =
// crossed above the threshold, false = recovered below it).
type ThresholdEvent struct {
	Kind      string
	Feature   string
	Value     float64
	Threshold float64
	High      bool
}

func (o MonitorOptions) withDefaults() MonitorOptions {
	if o.Window <= 0 {
		o.Window = 256
	}
	if o.MAPEThreshold == 0 {
		o.MAPEThreshold = 0.25
	}
	if o.DriftZThreshold == 0 {
		o.DriftZThreshold = 3
	}
	return o
}

// Monitor folds decision records into rolling-window model-quality
// statistics and exports them as gauges on a telemetry registry:
//
//	prov_pred_mape                   rolling MAPE of PredErr samples
//	prov_pred_bias                   rolling signed mean of PredErr
//	prov_level_flip_rate             fraction of decisions that changed a
//	                                 cluster's level vs its previous one
//	prov_feature_mean_z{feature=F}   window-mean shift of feature F in
//	                                 training-σ units
//	prov_feature_var_ratio{feature=F} window variance / training variance
//	prov_decisions_total{reason=R}   decisions answered per reason
//	prov_quality_events_total{kind=K} threshold crossings logged
//
// All methods are safe for concurrent use and allocation-free in steady
// state (a short mutex guards the window rings); a nil *Monitor is a
// valid no-op, so instrumented paths never nil-check.
type Monitor struct {
	opts MonitorOptions

	reasons [NumReasons]*telemetry.Counter

	mu sync.Mutex

	// Prediction-error window (signed relative errors).
	errs   []float64
	errPos int
	errN   int
	sumAbs float64
	sumErr float64

	// Flip window (1 = decision changed the cluster's level).
	flips     []int8
	flipPos   int
	flipN     int
	flipSum   int
	lastLevel map[int64]int32 // by (GPU, cluster)

	// Feature windows: a flat window × feature ring plus running sums.
	nFeat     int
	names     []string
	trainMean []float64
	trainStd  []float64
	fwin      []float64 // opts.Window rows of nFeat values
	fPos      int
	fN        int
	fSum      []float64
	fSumSq    []float64

	gMAPE, gBias, gFlip *telemetry.Gauge
	gZ, gVar            []*telemetry.Gauge

	evMAPE, evDrift *telemetry.Counter
	mapeHigh        bool
	driftHigh       []bool

	// pending accumulates threshold events under the lock; they are
	// drained and delivered to OnThreshold after unlock so the callback
	// can safely re-enter the monitor.
	pending []ThresholdEvent

	reg    *telemetry.Registry
	logger *telemetry.Logger
}

// maxLevelKeys bounds the flip-rate state, one entry per (GPU, cluster)
// seen, against a stream that cycles through unbounded identities.
const maxLevelKeys = 1 << 16

// NewMonitor builds a monitor exporting into reg. Training statistics
// (per-feature mean/σ and names) start empty; install them with
// SetTrainingStats before feature-drift gauges mean anything.
func NewMonitor(reg *telemetry.Registry, opts MonitorOptions) *Monitor {
	opts = opts.withDefaults()
	m := &Monitor{
		opts:      opts,
		errs:      make([]float64, opts.Window),
		flips:     make([]int8, opts.Window),
		lastLevel: make(map[int64]int32, 64),
		gMAPE:     reg.Gauge("prov_pred_mape"),
		gBias:     reg.Gauge("prov_pred_bias"),
		gFlip:     reg.Gauge("prov_level_flip_rate"),
		evMAPE:    reg.Counter("prov_quality_events_total", "kind", "mape"),
		evDrift:   reg.Counter("prov_quality_events_total", "kind", "drift"),
		reg:       reg,
		logger:    opts.Logger,
	}
	for i := range m.reasons {
		m.reasons[i] = reg.Counter("prov_decisions_total", "reason", Reason(i).String())
	}
	return m
}

// SetTrainingStats installs (or replaces, e.g. after a model hot-swap)
// the training-set per-feature statistics drift is measured against.
// names, mean and std must be the same length; the feature windows are
// reset since the reference changed.
func (m *Monitor) SetTrainingStats(names []string, mean, std []float64) {
	if m == nil {
		return
	}
	n := len(names)
	if len(mean) < n {
		n = len(mean)
	}
	if len(std) < n {
		n = len(std)
	}
	if n > MaxAux {
		n = MaxAux
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nFeat = n
	m.names = append(m.names[:0], names[:n]...)
	m.trainMean = append(m.trainMean[:0], mean[:n]...)
	m.trainStd = append(m.trainStd[:0], std[:n]...)
	m.fwin = make([]float64, m.opts.Window*n)
	m.fSum = make([]float64, n)
	m.fSumSq = make([]float64, n)
	m.fPos, m.fN = 0, 0
	m.gZ = m.gZ[:0]
	m.gVar = m.gVar[:0]
	m.driftHigh = make([]bool, n)
	for i := 0; i < n; i++ {
		m.gZ = append(m.gZ, m.reg.Gauge("prov_feature_mean_z", "feature", m.names[i]))
		m.gVar = append(m.gVar, m.reg.Gauge("prov_feature_var_ratio", "feature", m.names[i]))
	}
}

// ObserveRecord folds one decision into every statistic it informs: the
// per-reason counters always; the flip-rate and feature-drift windows
// when the record carries a level and derived features; the
// prediction-error window when the record carries the previous epoch's
// realized error. Nil-safe and allocation-free in steady state.
func (m *Monitor) ObserveRecord(rec *Record) {
	if m == nil {
		return
	}
	var reasons [NumReasons]int64
	m.mu.Lock()
	m.foldLocked(rec, &reasons)
	m.publishUnlock(&reasons)
}

// ObserveRecords is ObserveRecord for a run of decisions under one lock
// acquisition. Threshold crossings are still evaluated after every
// record, so the event stream is the one record-at-a-time observation
// produces; the gauges (last-value) and the per-reason counters are
// published once, and OnThreshold runs after the whole run is folded.
func (m *Monitor) ObserveRecords(recs []Record) {
	if m == nil || len(recs) == 0 {
		return
	}
	var reasons [NumReasons]int64
	m.mu.Lock()
	for i := range recs {
		m.foldLocked(&recs[i], &reasons)
	}
	m.publishUnlock(&reasons)
}

// foldLocked folds one record into the windows and evaluates the
// thresholds its fold can have moved; the caller holds m.mu.
func (m *Monitor) foldLocked(rec *Record, reasons *[NumReasons]int64) {
	if int(rec.Reason) < NumReasons {
		reasons[rec.Reason]++
	}

	// Flip rate: did this decision change its GPU's cluster's level?
	key := int64(uint32(rec.GPU))<<32 | int64(uint32(rec.Cluster))
	last, seen := m.lastLevel[key]
	if !seen && len(m.lastLevel) >= maxLevelKeys {
		clear(m.lastLevel) // identity churn past any real fleet: start over
	}
	m.lastLevel[key] = rec.Level
	if seen {
		var flip int8
		if last != rec.Level {
			flip = 1
		}
		m.flipSum += int(flip) - int(m.flips[m.flipPos])
		m.flips[m.flipPos] = flip
		m.flipPos = (m.flipPos + 1) % len(m.flips)
		if m.flipN < len(m.flips) {
			m.flipN++
		}
	}

	// Feature drift: fold the derived (selected, unscaled) features.
	featMoved := m.nFeat > 0 && int(rec.NumDerived) >= m.nFeat && rec.Reason == ReasonModel
	if featMoved {
		base := m.fPos * m.nFeat
		for j := 0; j < m.nFeat; j++ {
			v := rec.Derived[j]
			old := m.fwin[base+j]
			m.fwin[base+j] = v
			m.fSum[j] += v - old
			m.fSumSq[j] += v*v - old*old
		}
		m.fPos = (m.fPos + 1) % m.opts.Window
		if m.fN < m.opts.Window {
			m.fN++
		}
	}

	// Prediction error.
	if rec.HasPredErr {
		e := rec.PredErr
		old := m.errs[m.errPos]
		m.errs[m.errPos] = e
		m.errPos = (m.errPos + 1) % len(m.errs)
		if m.errN < len(m.errs) {
			m.errN++
		} else {
			m.sumAbs -= math.Abs(old)
			m.sumErr -= old
		}
		m.sumAbs += math.Abs(e)
		m.sumErr += e
		m.checkMAPELocked()
	}
	if featMoved {
		m.checkDriftLocked()
	}
}

// checkMAPELocked and checkDriftLocked fire the crossing events. Each
// reads one window only, so it runs when that window moved. Events fire
// only on full windows, so a couple of noisy first samples cannot trip
// them, and only on the crossing itself.
func (m *Monitor) checkMAPELocked() {
	th := m.opts.MAPEThreshold
	if th <= 0 || m.errN != len(m.errs) {
		return
	}
	mape := m.sumAbs / float64(m.errN)
	high := mape > th
	if high == m.mapeHigh {
		return
	}
	m.mapeHigh = high
	if high {
		m.evMAPE.Add(1)
		m.logger.Logf("provenance: rolling MAPE %.3f crossed threshold %.3f (window %d)", mape, th, m.errN)
	} else {
		m.logger.Logf("provenance: rolling MAPE %.3f back under threshold %.3f", mape, th)
	}
	if m.opts.OnThreshold != nil {
		m.pending = append(m.pending, ThresholdEvent{Kind: "mape", Value: mape, Threshold: th, High: high})
	}
}

func (m *Monitor) checkDriftLocked() {
	th := m.opts.DriftZThreshold
	if th <= 0 || m.fN != m.opts.Window {
		return
	}
	for j := 0; j < m.nFeat; j++ {
		z := m.meanZLocked(j)
		high := math.Abs(z) > th
		if high == m.driftHigh[j] {
			continue
		}
		m.driftHigh[j] = high
		if high {
			m.evDrift.Add(1)
			m.logger.Logf("provenance: feature %s drifted: window mean z=%.2f (threshold %.2f)", m.names[j], z, th)
		} else {
			m.logger.Logf("provenance: feature %s back in range (z=%.2f)", m.names[j], z)
		}
		if m.opts.OnThreshold != nil {
			m.pending = append(m.pending, ThresholdEvent{Kind: "drift", Feature: m.names[j], Value: z, Threshold: th, High: high})
		}
	}
}

// meanZLocked is feature j's window-mean shift in training-σ units (0
// for a feature with no training spread). Needs fN > 0.
func (m *Monitor) meanZLocked(j int) float64 {
	sd := m.trainStd[j]
	if !(sd > 0) {
		return 0
	}
	return (m.fSum[j]/float64(m.fN) - m.trainMean[j]) / sd
}

// publishUnlock refreshes the gauges from the windows as they now stand,
// adds the folded per-reason counts, releases m.mu (which the caller
// holds) and then delivers the crossings the folds queued, so a callback
// may re-enter the monitor.
func (m *Monitor) publishUnlock(reasons *[NumReasons]int64) {
	flipRate := 0.0
	if m.flipN > 0 {
		flipRate = float64(m.flipSum) / float64(m.flipN)
	}
	m.gFlip.Set(flipRate)
	if m.errN > 0 {
		m.gMAPE.Set(m.sumAbs / float64(m.errN))
		m.gBias.Set(m.sumErr / float64(m.errN))
	}
	if m.fN > 0 {
		n := float64(m.fN)
		for j := 0; j < m.nFeat; j++ {
			vr := 0.0
			if sd := m.trainStd[j]; sd > 0 {
				mean := m.fSum[j] / n
				variance := m.fSumSq[j]/n - mean*mean
				if variance < 0 {
					variance = 0
				}
				vr = variance / (sd * sd)
			}
			m.gZ[j].Set(m.meanZLocked(j))
			m.gVar[j].Set(vr)
		}
	}
	for r, n := range reasons {
		if n != 0 {
			m.reasons[r].Add(n)
		}
	}
	var fire []ThresholdEvent
	if len(m.pending) > 0 {
		fire = append(fire, m.pending...)
		m.pending = m.pending[:0]
	}
	m.mu.Unlock()
	if cb := m.opts.OnThreshold; cb != nil {
		for _, ev := range fire {
			cb(ev)
		}
	}
}

// Stats is a point-in-time view of the monitor's rolling statistics,
// for tests and end-of-run summaries.
type Stats struct {
	MAPE       float64
	Bias       float64
	ErrSamples int
	FlipRate   float64
}

// DriftState is a level-triggered view of the monitor's threshold state:
// unlike the crossing events (which fire once per edge and are easy to
// miss for a poller that attaches late), it reports what is true *now*.
type DriftState struct {
	// MAPEHigh is true while the rolling MAPE sits above its threshold
	// (on a full window). MAPE is the current rolling value, ErrSamples
	// how many samples back it.
	MAPEHigh   bool
	MAPE       float64
	ErrSamples int
	// Drifting lists the features whose window-mean |z| currently exceeds
	// the drift threshold, with their z values; WorstZ is the largest |z|
	// across all features (signed), WorstFeature its name. Feature state
	// is only meaningful on a full feature window (FeatureSamples ==
	// window length).
	Drifting       []string
	DriftZ         []float64
	WorstFeature   string
	WorstZ         float64
	FeatureSamples int
	FlipRate       float64
}

// Any reports whether any level-triggered condition is currently high.
func (s DriftState) Any() bool { return s.MAPEHigh || len(s.Drifting) > 0 }

// DriftState returns the current level-triggered threshold state. Unlike
// the edge-triggered events, polling this cannot race a crossing: a
// controller that checks between two crossings still sees the condition
// while it holds. Nil-safe; allocates only when features are drifting.
func (m *Monitor) DriftState() DriftState {
	if m == nil {
		return DriftState{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := DriftState{ErrSamples: m.errN, FeatureSamples: m.fN}
	if m.errN > 0 {
		st.MAPE = m.sumAbs / float64(m.errN)
	}
	if th := m.opts.MAPEThreshold; th > 0 && m.errN == len(m.errs) {
		st.MAPEHigh = st.MAPE > th
	}
	if m.flipN > 0 {
		st.FlipRate = float64(m.flipSum) / float64(m.flipN)
	}
	if m.nFeat > 0 && m.fN == m.opts.Window {
		th := m.opts.DriftZThreshold
		for j := 0; j < m.nFeat; j++ {
			if m.trainStd[j] > 0 {
				z := m.meanZLocked(j)
				if math.Abs(z) > math.Abs(st.WorstZ) {
					st.WorstZ = z
					st.WorstFeature = m.names[j]
				}
				if th > 0 && math.Abs(z) > th {
					st.Drifting = append(st.Drifting, m.names[j])
					st.DriftZ = append(st.DriftZ, z)
				}
			}
		}
	}
	return st
}

// Stats returns the current rolling statistics.
func (m *Monitor) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{ErrSamples: m.errN}
	if m.errN > 0 {
		s.MAPE = m.sumAbs / float64(m.errN)
		s.Bias = m.sumErr / float64(m.errN)
	}
	if m.flipN > 0 {
		s.FlipRate = float64(m.flipSum) / float64(m.flipN)
	}
	return s
}
