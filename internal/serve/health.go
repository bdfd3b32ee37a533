package serve

import (
	"sync/atomic"
)

// HealthState is the server's degradation level. The state machine moves
// healthy → degraded on the first model failure (recovered panic,
// deadline miss, or injected model error), degraded → fallback-only after
// 5 consecutive failures, and back to healthy after 3 consecutive clean
// model batches. In fallback-only every request is answered by the
// analytical PCSTALL fallback except a probe batch every 16th batch,
// which tries the model so recovery can be detected without exposing
// ordinary traffic to it.
type HealthState int32

const (
	Healthy HealthState = iota
	Degraded
	FallbackOnly
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case FallbackOnly:
		return "fallback-only"
	default:
		return "unknown"
	}
}

// The degradation state machine's thresholds.
const (
	// failThreshold consecutive model failures demote the server to
	// fallback-only.
	failThreshold = 5
	// restoreProbes consecutive clean model batches restore it to healthy.
	restoreProbes = 3
	// probeEvery is how often, in batches, the model is probed while in
	// fallback-only.
	probeEvery = 16
)

// health tracks the state machine with atomics only — it sits on the
// per-batch hot path and must not lock or allocate.
type health struct {
	state atomic.Int32
	fails atomic.Int64 // consecutive model failures
	clean atomic.Int64 // consecutive clean model batches
	ticks atomic.Int64 // batch counter scheduling fallback-only probes
}

// State returns the current degradation level.
func (h *health) State() HealthState { return HealthState(h.state.Load()) }

// Failures returns the consecutive-failure count.
func (h *health) Failures() int64 { return h.fails.Load() }

// useModel reports whether this batch should run the model: always,
// except in fallback-only where only every probeEvery-th batch probes it.
func (h *health) useModel() bool {
	if HealthState(h.state.Load()) != FallbackOnly {
		return true
	}
	return h.ticks.Add(1)%probeEvery == 0
}

// recordFailure notes a model failure and demotes the state.
func (h *health) recordFailure() {
	h.clean.Store(0)
	if f := h.fails.Add(1); f >= failThreshold {
		h.state.Store(int32(FallbackOnly))
	} else {
		h.state.Store(int32(Degraded))
	}
}

// recordSuccess notes a clean model batch and, after enough of them in a
// row, restores the server to healthy.
func (h *health) recordSuccess() {
	h.fails.Store(0)
	c := h.clean.Add(1)
	if HealthState(h.state.Load()) != Healthy && c >= restoreProbes {
		h.state.Store(int32(Healthy))
	}
}
