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
	// MAPEThreshold is the rolling MAPE of the live error
	// (pred − actual)/pred (as a fraction, e.g. 0.25; not Table II's
	// |pred − actual|/actual in percent, DESIGN.md) above
	// which DriftState reports MAPEHigh; 0 takes the default 0.25,
	// negative disables it.
	MAPEThreshold float64
	// DriftZThreshold is the per-feature |z| (window mean shift in
	// training-σ units) above which DriftState lists the feature as
	// drifting; 0 takes the default 3, negative disables.
	DriftZThreshold float64
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
//	prov_pred_mape                   rolling MAPE of PredErr samples, the
//	                                 live error (pred − actual)/pred
//	prov_pred_bias                   rolling signed mean of PredErr
//	prov_level_flip_rate             fraction of decisions that changed a
//	                                 cluster's level vs its previous one
//	prov_feature_mean_z{feature=F}   window-mean shift of feature F in
//	                                 training-σ units
//	prov_feature_var_ratio{feature=F} window variance / training variance
//	prov_decisions_total{reason=R}   decisions answered per reason
//
// DriftState is the one read of whether those statistics sit past their
// thresholds. All methods are safe for concurrent use and allocation-free
// in steady state (a short mutex guards the window rings); a nil *Monitor
// is a valid no-op, so instrumented paths never nil-check.
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
	flips   []int8
	flipPos int
	flipN   int
	flipSum int

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

	reg *telemetry.Registry
}

// NewMonitor builds a monitor exporting into reg. Training statistics
// (per-feature mean/σ and names) start empty; install them with
// SetTrainingStats before feature-drift gauges mean anything.
func NewMonitor(reg *telemetry.Registry, opts MonitorOptions) *Monitor {
	opts = opts.withDefaults()
	m := &Monitor{
		opts:  opts,
		errs:  make([]float64, opts.Window),
		flips: make([]int8, opts.Window),
		gMAPE: reg.Gauge("prov_pred_mape"),
		gBias: reg.Gauge("prov_pred_bias"),
		gFlip: reg.Gauge("prov_level_flip_rate"),
		reg:   reg,
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
	for i := 0; i < n; i++ {
		m.gZ = append(m.gZ, m.reg.Gauge("prov_feature_mean_z", "feature", m.names[i]))
		m.gVar = append(m.gVar, m.reg.Gauge("prov_feature_var_ratio", "feature", m.names[i]))
	}
}

// ObserveRecord folds one decision into every statistic it informs: the
// per-reason counters always; the flip-rate window when the record
// carries its identity's previous level (HasPrevLevel); the
// feature-drift window when it carries derived features; the
// prediction-error window when it carries the previous epoch's realized
// error. The monitor keeps no per-identity state of its own. Nil-safe
// and allocation-free.
func (m *Monitor) ObserveRecord(rec *Record) {
	if m == nil {
		return
	}
	var reasons [NumReasons]int64
	m.mu.Lock()
	m.foldLocked(rec, &reasons)
	m.publishLocked(&reasons)
	m.mu.Unlock()
}

// ObserveRecords is ObserveRecord for a run of decisions under one lock
// acquisition: the gauges (last-value) and the per-reason counters are
// published once, after the whole run is folded.
func (m *Monitor) ObserveRecords(recs []Record) {
	if m == nil || len(recs) == 0 {
		return
	}
	var reasons [NumReasons]int64
	m.mu.Lock()
	for i := range recs {
		m.foldLocked(&recs[i], &reasons)
	}
	m.publishLocked(&reasons)
	m.mu.Unlock()
}

// Replay folds a flight-recorder dump into a new monitor on reg the way
// the online monitor folded the same records, and returns its window
// statistics and per-reason counts. The training statistics are the dump
// header's and the window spans the whole dump, so nothing is evicted and
// every running sum is the same additions in the same order: on a dump
// that covers the served traffic, the replay's prov_* series equal the
// online monitor's. It is what `dvfsstat -decisions` prints.
func Replay(reg *telemetry.Registry, hdr Header, recs []Record) (w Window, reasons [NumReasons]int64) {
	m := NewMonitor(reg, MonitorOptions{Window: len(recs)})
	m.SetTrainingStats(hdr.Features, hdr.TrainMean, hdr.TrainStd)
	m.ObserveRecords(recs)
	for r, c := range m.reasons {
		reasons[r] = c.Load()
	}
	return m.windowLocked(), reasons
}

// foldLocked folds one record into the windows; the caller holds m.mu.
func (m *Monitor) foldLocked(rec *Record, reasons *[NumReasons]int64) {
	if int(rec.Reason) < NumReasons {
		reasons[rec.Reason]++
	}

	// Flip rate: did this decision change its GPU's cluster's level? The
	// producer stamped the identity's previous level into the record.
	if rec.HasPrevLevel {
		var flip int8
		if rec.PrevLevel != rec.Level {
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
	if m.nFeat > 0 && int(rec.NumDerived) >= m.nFeat && rec.Reason == ReasonModel {
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
	}
}

// Window is the rolling-window statistics as they stand, computed once
// by windowLocked for the gauges, DriftState and Replay. MAPE and Bias
// are the mean absolute and signed PredErr over ErrSamples, FlipRate the
// share of FlipSamples decisions that changed their identity's level
// (each 0 without samples). Over FeatureSamples model decisions, feature
// j < Features has window mean Mean[j], its shift Z[j] from the training
// mean in training-σ units and VarRatio[j], the window over the training
// variance (Z and VarRatio are 0 for a feature with no training spread).
type Window struct {
	ErrSamples, FlipSamples, FeatureSamples, Features int
	MAPE, Bias, FlipRate                              float64
	Mean, Z, VarRatio                                 [MaxAux]float64
}

// windowLocked computes the window statistics from the running sums; the
// caller holds m.mu.
func (m *Monitor) windowLocked() Window {
	w := Window{ErrSamples: m.errN, FlipSamples: m.flipN, FeatureSamples: m.fN, Features: m.nFeat}
	if m.errN > 0 {
		w.MAPE = m.sumAbs / float64(m.errN)
		w.Bias = m.sumErr / float64(m.errN)
	}
	if m.flipN > 0 {
		w.FlipRate = float64(m.flipSum) / float64(m.flipN)
	}
	if m.fN > 0 {
		n := float64(m.fN)
		for j := 0; j < m.nFeat; j++ {
			mean := m.fSum[j] / n
			w.Mean[j] = mean
			if sd := m.trainStd[j]; sd > 0 {
				w.Z[j] = (mean - m.trainMean[j]) / sd
				variance := m.fSumSq[j]/n - mean*mean
				if variance < 0 {
					variance = 0
				}
				w.VarRatio[j] = variance / (sd * sd)
			}
		}
	}
	return w
}

// publishLocked refreshes the gauges from the windows as they now stand
// and adds the folded per-reason counts; the caller holds m.mu.
func (m *Monitor) publishLocked(reasons *[NumReasons]int64) {
	w := m.windowLocked()
	m.gFlip.Set(w.FlipRate)
	if w.ErrSamples > 0 {
		m.gMAPE.Set(w.MAPE)
		m.gBias.Set(w.Bias)
	}
	if w.FeatureSamples > 0 {
		for j := 0; j < w.Features; j++ {
			m.gZ[j].Set(w.Z[j])
			m.gVar[j].Set(w.VarRatio[j])
		}
	}
	for r, n := range reasons {
		if n != 0 {
			m.reasons[r].Add(n)
		}
	}
}

// DriftState is a level-triggered view of the monitor's threshold state:
// it reports what is true *now*, so a poller that attaches late still
// sees a condition that holds.
type DriftState struct {
	// MAPEHigh is true while the rolling MAPE sits above its threshold
	// (on a full window). MAPE and Bias are the current rolling mean
	// absolute and signed errors, ErrSamples how many samples back them.
	MAPEHigh   bool
	MAPE       float64
	Bias       float64
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

// DriftState returns the current level-triggered threshold state: what a
// poll sees is the condition as it holds at the poll, so a crossing that
// clears between two polls is never seen. Nil-safe; allocates only when
// features are drifting.
func (m *Monitor) DriftState() DriftState {
	if m == nil {
		return DriftState{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.windowLocked()
	st := DriftState{MAPE: w.MAPE, Bias: w.Bias, ErrSamples: w.ErrSamples,
		FeatureSamples: w.FeatureSamples, FlipRate: w.FlipRate}
	if th := m.opts.MAPEThreshold; th > 0 && w.ErrSamples == m.opts.Window {
		st.MAPEHigh = st.MAPE > th
	}
	if w.Features > 0 && w.FeatureSamples == m.opts.Window {
		th := m.opts.DriftZThreshold
		for j, z := range w.Z[:w.Features] {
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
	return st
}
