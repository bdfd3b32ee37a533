package adapt

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/serve"
	"ssmdvfs/internal/telemetry"
)

// State is the adaptation state machine's current phase.
type State string

const (
	// StateMonitoring watches the drift monitor and accumulates the
	// training stream; nothing is being evaluated.
	StateMonitoring State = "monitoring"
	// StateShadow runs a re-fit candidate alongside the incumbent on live
	// traffic; the incumbent serves every decision.
	StateShadow State = "shadow"
	// StateCanary serves the promoted candidate while its live error is
	// compared against the promise it made in shadow.
	StateCanary State = "canary"
	// StateCooldown paces the loop after a completed (or aborted) cycle.
	StateCooldown State = "cooldown"
)

// stateCode maps states onto the adapt_state gauge (monitoring=0,
// shadow=1, canary=2, cooldown=3).
func stateCode(s State) float64 {
	switch s {
	case StateShadow:
		return 1
	case StateCanary:
		return 2
	case StateCooldown:
		return 3
	}
	return 0
}

const (
	// maxStreamRows bounds the retained training stream.
	maxStreamRows = 4096
	// absRegress floors the canary's rollback threshold so a near-zero
	// promise does not make the canary hair-triggered.
	absRegress = 0.10
)

// Options tunes the adaptation controller; zero values take defaults.
// The training stream keeps the newest maxStreamRows pairs, and the
// transition log holds telemetry.DefaultEventCapacity events.
type Options struct {
	// MinRows is how many harvested training pairs a re-fit needs
	// (default 512).
	MinRows int
	// ShadowMinSamples is how many realized shadow comparisons are needed
	// before the candidate is judged (default 256).
	ShadowMinSamples int
	// ShadowMaxSteps aborts a shadow evaluation that cannot gather its
	// samples within this many controller steps (default 50) — traffic
	// died down, the candidate is discarded rather than parked forever.
	ShadowMaxSteps int
	// Margin is the relative improvement the candidate's shadow MAPE must
	// show over the incumbent's to be promoted (default 0.1 = 10%).
	Margin float64
	// CanaryMinSamples is how many live realized-error samples the canary
	// needs before the promotion commits (default 256).
	CanaryMinSamples int
	// CanaryMaxSteps bounds the canary phase the same way ShadowMaxSteps
	// bounds shadow (default 50); an expired canary commits (no evidence
	// of regression).
	CanaryMaxSteps int
	// RegressFactor (default 1.5): the canary rolls back when its live
	// MAPE exceeds max(promise*RegressFactor, absRegress), where promise
	// is the candidate's shadow MAPE at promotion.
	RegressFactor float64
	// CooldownSteps paces the loop after any cycle outcome (default 4).
	CooldownSteps int
	// Refit tunes the Calibrator re-fit; Generation is managed by the
	// controller and ignored here.
	Refit core.RefitOptions
	// Logf receives progress messages; nil silences them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MinRows <= 0 {
		o.MinRows = 512
	}
	if o.ShadowMinSamples <= 0 {
		o.ShadowMinSamples = 256
	}
	if o.ShadowMaxSteps <= 0 {
		o.ShadowMaxSteps = 50
	}
	if o.Margin <= 0 {
		o.Margin = 0.1
	}
	if o.CanaryMinSamples <= 0 {
		o.CanaryMinSamples = 256
	}
	if o.CanaryMaxSteps <= 0 {
		o.CanaryMaxSteps = 50
	}
	if o.RegressFactor <= 0 {
		o.RegressFactor = 1.5
	}
	if o.CooldownSteps <= 0 {
		o.CooldownSteps = 4
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Controller drives the drift → re-fit → shadow → canary → promote /
// rollback loop over a serving engine. It is poll-driven: each Step
// scans the flight recorder for new traffic and advances the state
// machine at most one transition; Run wraps Step in a ticker. All
// methods are safe for concurrent use with serving.
type Controller struct {
	e    *serve.Engine
	opts Options

	events *telemetry.EventLog

	mu         sync.Mutex
	state      State
	stream     *streamBuilder
	shadow     *shadowScore // non-nil in shadow
	candidate  *core.Model
	incumbent  *core.Model // snapshot serving when the candidate promoted
	promise    float64     // candidate's shadow MAPE at promotion
	phaseSteps int
	cooldown   int
	maxGen     int
	canaryN    int
	canarySum  float64
	lastReject string

	gState, gServingGen, gCandGen, gStreamRows *telemetry.Gauge
	gShadowInc, gShadowCand, gCanaryMAPE       *telemetry.Gauge
	cRefits, cPromotes, cRollbacks, cRejects   *telemetry.Counter
	transitions                                map[State]*telemetry.Counter
}

// NewController attaches an adaptation controller to an engine. The
// engine must have provenance enabled (the flight recorder is the
// training stream) and should have prediction feedback enabled (live
// MAPE is both the drift trigger and the canary judge). The controller
// installs nothing on the engine until a candidate exists.
func NewController(e *serve.Engine, opts Options) (*Controller, error) {
	if e == nil {
		return nil, fmt.Errorf("adapt: nil engine")
	}
	if e.FlightRecorder() == nil {
		return nil, fmt.Errorf("adapt: engine has no flight recorder (enable provenance)")
	}
	opts = opts.withDefaults()
	reg := e.Telemetry()
	c := &Controller{
		e:           e,
		opts:        opts,
		events:      telemetry.NewEventLog(telemetry.DefaultEventCapacity, reg),
		state:       StateMonitoring,
		stream:      newStreamBuilder(maxStreamRows),
		maxGen:      e.Generation(),
		gState:      reg.Gauge("adapt_state"),
		gServingGen: reg.Gauge("adapt_serving_generation"),
		gCandGen:    reg.Gauge("adapt_candidate_generation"),
		gStreamRows: reg.Gauge("adapt_stream_rows"),
		gShadowInc:  reg.Gauge("adapt_shadow_mape", "model", "incumbent"),
		gShadowCand: reg.Gauge("adapt_shadow_mape", "model", "candidate"),
		gCanaryMAPE: reg.Gauge("adapt_canary_live_mape"),
		cRefits:     reg.Counter("adapt_refits_total"),
		cPromotes:   reg.Counter("adapt_promotions_total"),
		cRollbacks:  reg.Counter("adapt_rollbacks_total"),
		cRejects:    reg.Counter("adapt_rejects_total"),
		transitions: make(map[State]*telemetry.Counter, 4),
	}
	for _, s := range []State{StateMonitoring, StateShadow, StateCanary, StateCooldown} {
		c.transitions[s] = reg.Counter("adapt_transitions_total", "to", string(s))
	}
	c.gState.Set(stateCode(StateMonitoring))
	c.gServingGen.Set(float64(e.Generation()))
	return c, nil
}

// Events exposes the transition log (for /debug/adapt and artifacts).
func (c *Controller) Events() *telemetry.EventLog { return c.events }

// State returns the current phase.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// transitionLocked moves the state machine and records the move; the
// caller holds c.mu.
func (c *Controller) transitionLocked(to State, reason string, detail map[string]any) {
	from := c.state
	c.state = to
	c.phaseSteps = 0
	c.gState.Set(stateCode(to))
	c.transitions[to].Add(1)
	if detail == nil {
		detail = map[string]any{}
	}
	detail["from"] = string(from)
	detail["head"] = c.e.FlightRecorder().Head()
	c.events.Append(telemetry.Event{Kind: string(to), Reason: reason, Detail: detail})
	c.opts.Logf("adapt: %s -> %s: %s", from, to, reason)
}

// Step advances the loop by at most one transition. It is what Run calls
// on every tick, exposed so tests (and callers with their own
// schedulers) can drive the controller deterministically.
func (c *Controller) Step() {
	c.mu.Lock()
	defer c.mu.Unlock()

	// One recorder walk per step feeds the training stream, in shadow the
	// candidate's grading on the pairs it completes, and in canary the
	// live-error account for the candidate generation.
	candGen := 0
	if c.state == StateCanary && c.candidate != nil {
		candGen = c.candidate.Lineage.Generation
	}
	var grade func(*pendingPred, float64)
	if c.shadow != nil {
		grade = c.shadow.grade
	}
	c.stream.Scan(c.e.FlightRecorder(), func(r *provenance.Record) {
		if candGen != 0 && r.ModelGen == uint32(candGen) && r.HasPredErr {
			c.canaryN++
			c.canarySum += math.Abs(r.PredErr)
		}
	}, grade)
	c.gStreamRows.Set(float64(c.stream.Len()))
	c.gServingGen.Set(float64(c.e.Generation()))
	c.phaseSteps++

	switch c.state {
	case StateMonitoring:
		c.stepMonitoring()
	case StateShadow:
		c.stepShadow()
	case StateCanary:
		c.stepCanary()
	case StateCooldown:
		c.cooldown--
		if c.cooldown <= 0 {
			c.transitionLocked(StateMonitoring, "cooldown complete", nil)
		}
	}
}

func (c *Controller) stepMonitoring() {
	// Drift is polled: only a condition that holds at this step starts a
	// refit; a crossing that cleared since the last step is not seen.
	st := c.e.QualityMonitor().DriftState()
	if !st.Any() {
		return
	}
	if c.stream.Len() < c.opts.MinRows {
		return // drifting, but not enough traffic harvested to learn from
	}

	parent := c.e.Model()
	rows, targets := c.stream.Build(parent.FeatureIdx)
	gen := c.maxGen + 1
	refit := c.opts.Refit
	refit.Generation = gen
	cand, rep, err := core.RefitCalibrator(parent, rows, targets, refit)
	c.cRefits.Add(1)
	if err != nil {
		// A diverged re-fit is not an incident: log it, drop the stream
		// (it produced a bad fit), and keep monitoring.
		c.stream.Reset()
		c.events.Append(telemetry.Event{Kind: "refit_failed", Reason: err.Error()})
		c.opts.Logf("adapt: refit failed: %v", err)
		return
	}
	c.maxGen = gen
	c.candidate = cand
	c.gCandGen.Set(float64(gen))
	c.shadow = newShadowScore(cand)
	c.transitionLocked(StateShadow, "drift detected, candidate refit", map[string]any{
		"generation": gen, "rows": rep.Rows,
		"train_mape_before": rep.MAPEBefore, "train_mape_after": rep.MAPEAfter,
		"drift_mape": st.MAPE, "drift_mape_high": st.MAPEHigh,
		"drifting_features": st.Drifting, "worst_feature": st.WorstFeature, "worst_z": st.WorstZ,
	})
}

func (c *Controller) stepShadow() {
	res := c.shadow.Result()
	c.gShadowInc.Set(res.Incumbent)
	c.gShadowCand.Set(res.Candidate)
	if res.Samples < c.opts.ShadowMinSamples {
		if c.phaseSteps > c.opts.ShadowMaxSteps {
			c.rejectLocked("shadow evaluation starved", res)
		}
		return
	}

	// The minimum-sample gate is met: judge. The candidate must beat the
	// incumbent's live MAPE by the configured margin. How often its
	// decision head agreed with what served is reported, not gated.
	if res.Candidate >= res.Incumbent*(1-c.opts.Margin) {
		c.rejectLocked(fmt.Sprintf("candidate MAPE %.4f did not beat incumbent %.4f by %.0f%%",
			res.Candidate, res.Incumbent, c.opts.Margin*100), res)
		return
	}

	incumbent := c.e.Model()
	if err := c.e.Swap(c.candidate); err != nil {
		// The validated hot-swap gate said no (backend parity, shape, a
		// concurrently injected swap fault): the candidate does not serve.
		c.rejectLocked(fmt.Sprintf("swap rejected: %v", err), res)
		return
	}
	c.incumbent = incumbent
	c.promise = res.Candidate
	c.canaryN, c.canarySum = 0, 0
	c.shadow = nil
	c.stream.Reset() // the stream taught this candidate; the canary judges on fresh traffic
	c.cPromotes.Add(1)
	c.transitionLocked(StateCanary, "candidate promoted", map[string]any{
		"generation": c.candidate.Lineage.Generation,
		"promise":    c.promise, "incumbent_mape": res.Incumbent,
		"samples": res.Samples, "agree_rate": res.AgreeRate,
	})
}

func (c *Controller) stepCanary() {
	live := 0.0
	if c.canaryN > 0 {
		live = c.canarySum / float64(c.canaryN)
	}
	c.gCanaryMAPE.Set(live)
	threshold := max(c.promise*c.opts.RegressFactor, absRegress)

	// Regression check first — a regressing canary must not be committed
	// just because its sample count also crossed the minimum this step.
	// The check arms at a quarter of the commit gate but never needs more
	// than 64 samples: evidence of a gross regression does not scale with
	// how long a clean canary must bake before committing.
	armAt := c.opts.CanaryMinSamples / 4
	if armAt > 64 {
		armAt = 64
	}
	if c.canaryN >= armAt && live > threshold {
		gen := c.candidate.Lineage.Generation
		back, err := c.e.Rollback()
		if err != nil {
			// Unreachable in practice (a promotion always retains the
			// incumbent), but never leave a regressing model serving
			// silently: keep the canary and re-check next step.
			c.events.Append(telemetry.Event{Kind: "rollback_failed", Reason: err.Error()})
			return
		}
		c.cRollbacks.Add(1)
		c.clearCandidateLocked()
		c.cooldown = c.opts.CooldownSteps
		c.transitionLocked(StateCooldown, "canary regressed, rolled back", map[string]any{
			"generation": gen, "restored_generation": back.Lineage.Generation,
			"live_mape": live, "promise": c.promise, "threshold": threshold,
			"samples": c.canaryN,
		})
		return
	}
	if c.canaryN >= c.opts.CanaryMinSamples || c.phaseSteps > c.opts.CanaryMaxSteps {
		reason := "canary committed"
		if c.canaryN < c.opts.CanaryMinSamples {
			reason = "canary expired without evidence of regression"
		}
		gen := c.candidate.Lineage.Generation
		c.clearCandidateLocked()
		c.incumbent = nil
		c.cooldown = c.opts.CooldownSteps
		c.transitionLocked(StateCooldown, reason, map[string]any{
			"generation": gen, "live_mape": live, "promise": c.promise, "samples": c.canaryN,
		})
	}
}

// rejectLocked abandons the current candidate without it ever serving.
func (c *Controller) rejectLocked(reason string, res ShadowResult) {
	c.cRejects.Add(1)
	c.lastReject = reason
	gen := 0
	if c.candidate != nil {
		gen = c.candidate.Lineage.Generation
	}
	c.shadow = nil
	c.clearCandidateLocked()
	c.stream.Reset()
	c.cooldown = c.opts.CooldownSteps
	c.transitionLocked(StateCooldown, "candidate rejected: "+reason, map[string]any{
		"generation": gen, "incumbent_mape": res.Incumbent, "candidate_mape": res.Candidate,
		"samples": res.Samples,
	})
}

func (c *Controller) clearCandidateLocked() {
	c.candidate = nil
	c.gCandGen.Set(0)
}

// Run drives Step on the given interval until ctx is cancelled.
func (c *Controller) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Step()
		}
	}
}

// Status is the /debug/adapt JSON payload.
type Status struct {
	State             State                 `json:"state"`
	ServingGeneration int                   `json:"serving_generation"`
	ServingLineage    string                `json:"serving_lineage"`
	CandidateGen      int                   `json:"candidate_generation,omitempty"`
	StreamRows        int                   `json:"stream_rows"`
	Drift             provenance.DriftState `json:"drift"`
	Shadow            *ShadowResult         `json:"shadow,omitempty"`
	CanarySamples     int                   `json:"canary_samples,omitempty"`
	CanaryLiveMAPE    float64               `json:"canary_live_mape,omitempty"`
	CanaryPromise     float64               `json:"canary_promise,omitempty"`
	LastReject        string                `json:"last_reject,omitempty"`
	Transitions       []telemetry.Event     `json:"transitions"`
}

// Status snapshots the controller for debugging.
func (c *Controller) Status() Status {
	c.mu.Lock()
	st := Status{
		State:             c.state,
		ServingGeneration: c.e.Generation(),
		ServingLineage:    c.e.Model().Lineage.String(),
		StreamRows:        c.stream.Len(),
		LastReject:        c.lastReject,
	}
	if c.candidate != nil {
		st.CandidateGen = c.candidate.Lineage.Generation
	}
	if c.shadow != nil {
		res := c.shadow.Result()
		st.Shadow = &res
	}
	if c.state == StateCanary {
		st.CanarySamples = c.canaryN
		if c.canaryN > 0 {
			st.CanaryLiveMAPE = c.canarySum / float64(c.canaryN)
		}
		st.CanaryPromise = c.promise
	}
	c.mu.Unlock()
	st.Drift = c.e.QualityMonitor().DriftState()
	st.Transitions = c.events.Snapshot(nil)
	if st.Transitions == nil {
		st.Transitions = []telemetry.Event{}
	}
	return st
}

// Handler serves the controller state as JSON — mounted at /debug/adapt.
func (c *Controller) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", telemetry.ContentTypeJSON)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(c.Status())
	})
}
