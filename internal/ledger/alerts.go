package ledger

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"ssmdvfs/internal/telemetry"
)

// RuleKind names what an alert rule watches.
type RuleKind string

const (
	// KindBurn fires when the fleet's perf-loss budget burn over the
	// recent ring windows exceeds Threshold (1.0 = spending exactly the
	// requested budget).
	KindBurn RuleKind = "burn"
	// KindRegress fires when recent energy saved per decision has fallen
	// by more than Threshold (a fraction) versus the rolling baseline of
	// the older ring windows.
	KindRegress RuleKind = "regress"
	// KindStale fires when any replica's ledger has not advanced (or its
	// scrape has been failing) for more than Threshold seconds.
	KindStale RuleKind = "stale"
)

// Rule is one declarative alert: fire when the watched value exceeds
// Threshold, evaluated over the most recent Windows ring windows, but
// only once at least MinDecisions decisions back the value (staleness
// needs no volume and ignores MinDecisions).
type Rule struct {
	Name      string   `json:"name"`
	Kind      RuleKind `json:"kind"`
	Threshold float64  `json:"threshold"`
	Windows   int      `json:"windows,omitempty"`
	// MinDecisions gates volume-sensitive rules (default 32).
	MinDecisions int64 `json:"min_decisions,omitempty"`
}

const (
	defaultRuleWindows   = 16
	defaultMinDecisions  = 32
	defaultBurnThresh    = 1.5
	defaultRegressThresh = 0.5
	defaultStaleThresh   = 15
)

func (r Rule) withDefaults() Rule {
	if r.Windows <= 0 {
		r.Windows = defaultRuleWindows
	}
	if r.MinDecisions <= 0 {
		r.MinDecisions = defaultMinDecisions
	}
	if r.Name == "" {
		r.Name = string(r.Kind)
	}
	return r
}

// DefaultRules is the rule set a router runs when none is configured:
// budget burn > 1.5×, energy-savings regression > 50% vs the rolling
// baseline, replica ledger stale > 15 s.
func DefaultRules() []Rule {
	return []Rule{
		{Kind: KindBurn, Threshold: defaultBurnThresh},
		{Kind: KindRegress, Threshold: defaultRegressThresh},
		{Kind: KindStale, Threshold: defaultStaleThresh},
	}
}

// ParseRules parses a flag-friendly rule spec: semicolon-separated
// `kind>threshold` clauses with optional `@windows` and `/min-decisions`
// suffixes, e.g. "burn>1.2@32;regress>0.5;stale>10". Empty spec returns
// DefaultRules(); "none" disables alerting.
func ParseRules(spec string) ([]Rule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return DefaultRules(), nil
	}
	if spec == "none" {
		return nil, nil
	}
	var rules []Rule
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, rest, ok := strings.Cut(clause, ">")
		if !ok {
			return nil, fmt.Errorf("ledger: rule %q: want kind>threshold", clause)
		}
		var r Rule
		switch RuleKind(strings.TrimSpace(kind)) {
		case KindBurn, KindRegress, KindStale:
			r.Kind = RuleKind(strings.TrimSpace(kind))
		default:
			return nil, fmt.Errorf("ledger: rule %q: unknown kind %q", clause, kind)
		}
		if at := strings.IndexByte(rest, '@'); at >= 0 {
			tail := rest[at+1:]
			rest = rest[:at]
			if slash := strings.IndexByte(tail, '/'); slash >= 0 {
				md, err := strconv.ParseInt(tail[slash+1:], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("ledger: rule %q: bad min-decisions: %w", clause, err)
				}
				r.MinDecisions = md
				tail = tail[:slash]
			}
			w, err := strconv.Atoi(tail)
			if err != nil {
				return nil, fmt.Errorf("ledger: rule %q: bad windows: %w", clause, err)
			}
			r.Windows = w
		}
		thresh, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("ledger: rule %q: bad threshold: %w", clause, err)
		}
		// A NaN threshold makes the rule's state unencodable as JSON, and
		// ±Inf keeps a rule always silent or always firing.
		if math.IsNaN(thresh) || math.IsInf(thresh, 0) {
			return nil, fmt.Errorf("ledger: rule %q: threshold %v is not finite", clause, thresh)
		}
		r.Threshold = thresh
		rules = append(rules, r.withDefaults())
	}
	return rules, nil
}

// ReplicaLedger is one replica's view as the evaluator sees it: its last
// good snapshot plus scrape liveness.
type ReplicaLedger struct {
	Addr     string   `json:"addr"`
	Snapshot Snapshot `json:"snapshot"`
	// Err is the last scrape error ("" when the last scrape succeeded).
	Err string `json:"err,omitempty"`
	// LastAdvanceUnix is when the replica's decision count last moved (or
	// the replica was first seen), in Unix seconds.
	LastAdvanceUnix int64 `json:"last_advance_unix,omitempty"`
}

// AlertState is one rule's evaluated state.
type AlertState struct {
	Rule   Rule    `json:"rule"`
	Value  float64 `json:"value"`
	Firing bool    `json:"firing"`
	// Detail explains the value (which replica is stale, the baseline the
	// regression compares against, ...).
	Detail string `json:"detail,omitempty"`
}

// Alerts evaluates a rule set against merged ledger snapshots and
// surfaces the results as alert_firing/alert_value gauges and
// alert_transitions_total counters, which count every firing↔clear
// transition.
type Alerts struct {
	rules  []Rule
	firing map[string]*telemetry.Gauge
	value  map[string]*telemetry.Gauge
	trans  map[string]*telemetry.Counter
	was    map[string]bool
}

// NewAlerts builds an evaluator. reg hosts the alert_* series (nil uses
// a private registry).
func NewAlerts(rules []Rule, reg *telemetry.Registry) *Alerts {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	a := &Alerts{
		firing: make(map[string]*telemetry.Gauge),
		value:  make(map[string]*telemetry.Gauge),
		trans:  make(map[string]*telemetry.Counter),
		was:    make(map[string]bool),
	}
	for _, r := range rules {
		r = r.withDefaults()
		a.rules = append(a.rules, r)
		a.firing[r.Name] = reg.Gauge("alert_firing", "rule", r.Name)
		a.value[r.Name] = reg.Gauge("alert_value", "rule", r.Name)
		a.trans[r.Name] = reg.Counter("alert_transitions_total", "rule", r.Name)
		a.firing[r.Name].Set(0)
	}
	return a
}

// ringTail sums the newest n points of a ring snapshot.
func ringTail(pts []telemetry.RingPoint, n int) (count, sum int64) {
	if n > 0 && len(pts) > n {
		pts = pts[len(pts)-n:]
	}
	for _, p := range pts {
		count += p.Count
		sum += p.Sum
	}
	return count, sum
}

// Eval evaluates every rule against the merged fleet snapshot and the
// per-replica scrape states, updating gauges and counters, and
// returns the states in rule order. Not safe for concurrent use (the
// scrape loop is the single caller).
func (a *Alerts) Eval(now time.Time, merged Snapshot, reps []ReplicaLedger) []AlertState {
	if a == nil {
		return nil
	}
	out := make([]AlertState, 0, len(a.rules))
	for _, r := range a.rules {
		st := AlertState{Rule: r}
		switch r.Kind {
		case KindBurn:
			st = a.evalBurn(r, merged)
		case KindRegress:
			st = a.evalRegress(r, merged)
		case KindStale:
			st = a.evalStale(r, now, reps)
		}
		a.value[r.Name].Set(st.Value)
		if st.Firing {
			a.firing[r.Name].Set(1)
		} else {
			a.firing[r.Name].Set(0)
		}
		if st.Firing != a.was[r.Name] {
			a.was[r.Name] = st.Firing
			a.trans[r.Name].Add(1)
		}
		out = append(out, st)
	}
	return out
}

func (a *Alerts) evalBurn(r Rule, merged Snapshot) AlertState {
	st := AlertState{Rule: r}
	n, lossSum := ringTail(merged.LossRing, r.Windows)
	_, presetSum := ringTail(merged.PresetRing, r.Windows)
	if presetSum <= 0 {
		// No windowed budget signal (rings empty or incomparable): fall
		// back to lifetime burn so a cold router still alerts.
		if merged.PresetPpmSum <= 0 {
			return st
		}
		n, lossSum, presetSum = merged.Decisions, merged.PerfLossPpmSum, merged.PresetPpmSum
	}
	st.Value = float64(lossSum) / float64(presetSum)
	st.Detail = fmt.Sprintf("burn %.2f over %d decisions", st.Value, n)
	st.Firing = n >= r.MinDecisions && st.Value > r.Threshold
	return st
}

func (a *Alerts) evalRegress(r Rule, merged Snapshot) AlertState {
	st := AlertState{Rule: r}
	pts := merged.SavedRing
	if len(pts) == 0 {
		return st
	}
	cut := len(pts) - r.Windows
	if cut <= 0 {
		// Not enough history yet to have a baseline distinct from the
		// recent window: nothing to regress against.
		return st
	}
	baseCount, baseSum := ringTail(pts[:cut], 0)
	recentCount, recentSum := ringTail(pts[cut:], 0)
	if baseCount < r.MinDecisions || recentCount < r.MinDecisions || baseSum <= 0 {
		return st
	}
	base := float64(baseSum) / float64(baseCount)
	recent := float64(recentSum) / float64(recentCount)
	st.Value = 1 - recent/base
	st.Detail = fmt.Sprintf("saved/decision %.0f pJ recent vs %.0f pJ baseline", recent, base)
	st.Firing = st.Value > r.Threshold
	return st
}

func (a *Alerts) evalStale(r Rule, now time.Time, reps []ReplicaLedger) AlertState {
	st := AlertState{Rule: r}
	for _, rep := range reps {
		if rep.LastAdvanceUnix == 0 {
			continue
		}
		age := float64(now.Unix() - rep.LastAdvanceUnix)
		if age > st.Value {
			st.Value = age
			st.Detail = fmt.Sprintf("replica %s ledger stale %.0fs", rep.Addr, age)
			if rep.Err != "" {
				st.Detail += " (scrape error: " + rep.Err + ")"
			}
		}
	}
	st.Firing = st.Value > r.Threshold
	return st
}
