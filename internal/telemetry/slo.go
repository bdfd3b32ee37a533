package telemetry

import (
	"sync"
	"time"
)

// SLO tracks an error budget over a rolling window and exposes its burn
// rate as registry gauges. "Bad" is whatever the caller says it is — a
// decision past its latency budget, a shed row — and budget is the bad
// fraction the SLO tolerates (e.g. 0.001 = 99.9%). Burn rate is the
// classic multi-window alerting quantity: observed bad fraction divided
// by budget, so 1.0 means the budget is being consumed exactly as fast
// as it accrues and anything sustained above 1.0 exhausts it.
//
// The rolling window is approximated by two half-windows: observations
// land in the current half, and the bad fraction is computed over the
// current + previous halves, giving a window-to-1.5-window lookback
// without per-observation timestamps. Gauges published:
//
//	slo_burn_rate{slo="<name>"}  — bad fraction / budget
//	slo_bad_ratio{slo="<name>"}  — raw bad fraction
//	slo_budget{slo="<name>"}     — the configured budget (constant)
type SLO struct {
	budget float64
	half   time.Duration
	now    func() time.Time

	burn    *Gauge
	ratio   *Gauge
	budgetG *Gauge

	mu       sync.Mutex
	curStart time.Time
	curGood  int64
	curBad   int64
	prevGood int64
	prevBad  int64
}

// NewSLO registers an SLO named name on reg with the given bad-fraction
// budget and rolling window. A nil registry, non-positive budget, or
// non-positive window returns nil; a nil *SLO ignores all observations.
func NewSLO(reg *Registry, name string, budget float64, window time.Duration) *SLO {
	if reg == nil || budget <= 0 || window <= 0 {
		return nil
	}
	s := &SLO{
		budget:  budget,
		half:    window / 2,
		now:     time.Now,
		burn:    reg.Gauge("slo_burn_rate", "slo", name),
		ratio:   reg.Gauge("slo_bad_ratio", "slo", name),
		budgetG: reg.Gauge("slo_budget", "slo", name),
	}
	s.budgetG.Set(budget)
	return s
}

// SetClock overrides the time source (tests).
func (s *SLO) SetClock(now func() time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.now = now
	s.curStart = time.Time{}
	s.mu.Unlock()
}

// Observe records one outcome.
func (s *SLO) Observe(bad bool) {
	if bad {
		s.ObserveN(0, 1)
	} else {
		s.ObserveN(1, 0)
	}
}

// ObserveN records a batch of outcomes and republishes the gauges.
func (s *SLO) ObserveN(good, bad int64) {
	if s == nil || (good == 0 && bad == 0) {
		return
	}
	s.mu.Lock()
	now := s.now()
	if s.curStart.IsZero() {
		s.curStart = now
	} else if age := now.Sub(s.curStart); age >= s.half {
		s.prevGood, s.prevBad = s.curGood, s.curBad
		if age >= 2*s.half {
			// The current half ended over a half-window ago, so
			// nothing it counted is inside the lookback any more.
			s.prevGood, s.prevBad = 0, 0
		}
		s.curGood, s.curBad = 0, 0
		s.curStart = now
	}
	s.curGood += good
	s.curBad += bad
	totBad := s.curBad + s.prevBad
	tot := totBad + s.curGood + s.prevGood
	s.mu.Unlock()

	frac := 0.0
	if tot > 0 {
		frac = float64(totBad) / float64(tot)
	}
	s.ratio.Set(frac)
	s.burn.Set(frac / s.budget)
}
