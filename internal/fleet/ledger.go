package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/telemetry"
)

// LedgerAggregate is the router's fleet-wide efficiency view: the merged
// snapshot across every scraped replica, the per-replica states behind
// it, and the alert evaluation — the /debug/ledger payload and what
// dvfstop renders.
type LedgerAggregate struct {
	// AtUnix is when the scrape completed, Unix seconds.
	AtUnix   int64                  `json:"at_unix"`
	Merged   ledger.Snapshot        `json:"merged"`
	Replicas []ledger.ReplicaLedger `json:"replicas"`
	Alerts   []ledger.AlertState    `json:"alerts,omitempty"`
}

// WriteJSON writes the aggregate as indented JSON.
func (a *LedgerAggregate) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// ReadLedgerAggregate parses a WriteJSON payload. Every snapshot in it,
// the merged one and each replica's, must pass ledger's Validate, as a
// snapshot read alone must.
func ReadLedgerAggregate(r io.Reader) (*LedgerAggregate, error) {
	var a LedgerAggregate
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("fleet: ledger aggregate: %w", err)
	}
	if err := a.Merged.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: ledger aggregate: merged: %w", err)
	}
	for _, rep := range a.Replicas {
		if err := rep.Snapshot.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: ledger aggregate: replica %q: %w", rep.Addr, err)
		}
	}
	return &a, nil
}

// fetchLedgerTimeout bounds one FetchLedger call, connect to last byte.
const fetchLedgerTimeout = 5 * time.Second

// getLedger GETs url with c and returns the body, read up to 16 MiB. A
// status other than 200 is an error naming url, the status and the body.
func getLedger(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// FetchLedger GETs /debug/ledger under the base URL (no trailing slash)
// and accepts either payload the two tiers serve there: a router's
// LedgerAggregate (it has a "merged" key; fleet is true) or a bare replica
// snapshot, which comes back as an aggregate holding only Merged — what
// dvfstop renders and dvfsload -ledger summarises. It gives up after
// fetchLedgerTimeout.
func FetchLedger(base string) (agg *LedgerAggregate, fleet bool, err error) {
	body, err := getLedger(&http.Client{Timeout: fetchLedgerTimeout}, base+"/debug/ledger")
	if err != nil {
		return nil, false, err
	}
	var probe struct {
		Merged *json.RawMessage `json:"merged"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, false, fmt.Errorf("parse %s/debug/ledger: %w", base, err)
	}
	if probe.Merged != nil {
		agg, err = ReadLedgerAggregate(bytes.NewReader(body))
		return agg, true, err
	}
	snap, err := ledger.ReadSnapshot(bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	return &LedgerAggregate{Merged: snap}, false, nil
}

// WriteLedgerHeadline writes the lines dvfstop heads its frame with and
// dvfsload -ledger ends its report with: the scope and source, energy
// saved against the MaxFreq bill, mean perf loss against its budget and
// the burn, and on a router's aggregate every alert rule with the firing
// ones marked.
func WriteLedgerHeadline(w io.Writer, src string, agg *LedgerAggregate, isFleet bool) {
	scope := "replica"
	if isFleet {
		scope = "fleet"
	}
	fmt.Fprintf(w, "%s efficiency ledger — %s\n", scope, src)
	if agg.AtUnix > 0 {
		fmt.Fprintf(w, "scraped %s\n", time.Unix(agg.AtUnix, 0).UTC().Format(time.RFC3339))
	}
	s := agg.Merged
	fmt.Fprintf(w, "\n  energy saved   %10s   (%.1f%% of the MaxFreq bill over %d decisions, %d skipped)\n",
		ledger.FormatEnergyPJ(float64(s.SavedPJ())), s.SavedRatio()*100, s.Decisions, s.Skipped)
	fmt.Fprintf(w, "  perf loss      %9.3f%%   mean (budget %.3f%%, burn %.2fx)\n",
		s.MeanPerfLoss()*100, s.MeanPreset()*100, s.BudgetBurn())
	if !isFleet {
		return
	}
	if len(agg.Alerts) == 0 {
		fmt.Fprintf(w, "\n  alerts: none configured\n")
		return
	}
	firing := 0
	for _, a := range agg.Alerts {
		if a.Firing {
			firing++
		}
	}
	fmt.Fprintf(w, "\n  alerts: %d/%d firing\n", firing, len(agg.Alerts))
	for _, a := range agg.Alerts {
		state := "   ok  "
		if a.Firing {
			state = " FIRING"
		}
		fmt.Fprintf(w, "  %s  %-8s value %8.2f  threshold %g", state, a.Rule.Name, a.Value, a.Rule.Threshold)
		if a.Detail != "" {
			fmt.Fprintf(w, "  (%s)", a.Detail)
		}
		fmt.Fprintln(w)
	}
}

// replicaLedgerState is the scrape loop's memory of one replica: its
// last good snapshot plus the watermark deciding staleness (when its
// decision count last advanced).
type replicaLedgerState struct {
	url           string
	snap          ledger.Snapshot
	haveSnap      bool
	lastDecisions int64
	lastAdvance   time.Time
	err           string
}

// ledgerPlane is the router's ledger aggregation plane: a scrape loop
// over the replicas' /debug/ledger endpoints, the deterministic merge,
// the alert evaluator, and the fleet-level gauges. The loop goroutine is
// the only writer; readers go through the atomic aggregate pointer.
type ledgerPlane struct {
	rt       *Router
	interval time.Duration
	client   *http.Client
	alerts   *ledger.Alerts
	states   []replicaLedgerState
	agg      atomic.Pointer[LedgerAggregate]

	scrapes      *telemetry.Counter
	scrapeErrors *telemetry.Counter
	replicasOK   *telemetry.Gauge
	decisions    *telemetry.Gauge
	savedPJ      *telemetry.Gauge
	savedRatio   *telemetry.Gauge
	lossMean     *telemetry.Gauge
	burn         *telemetry.Gauge
	firing       *telemetry.Gauge
}

func newLedgerPlane(rt *Router, opts Options) *ledgerPlane {
	reg := rt.Telemetry()
	p := &ledgerPlane{
		rt:       rt,
		interval: opts.ScrapeInterval,
		client:   &http.Client{Timeout: opts.ScrapeInterval},
		states:   make([]replicaLedgerState, len(opts.ReplicaHTTP)),

		scrapes:      reg.Counter("ledger_scrapes_total"),
		scrapeErrors: reg.Counter("ledger_scrape_errors_total"),
		replicasOK:   reg.Gauge("ledger_replicas_ok"),
		decisions:    reg.Gauge("ledger_fleet_decisions"),
		savedPJ:      reg.Gauge("ledger_fleet_energy_saved_pj"),
		savedRatio:   reg.Gauge("ledger_fleet_energy_saved_ratio"),
		lossMean:     reg.Gauge("ledger_fleet_perf_loss_mean_ppm"),
		burn:         reg.Gauge("ledger_fleet_budget_burn"),
		firing:       reg.Gauge("ledger_alerts_firing"),
	}
	p.alerts = ledger.NewAlerts(opts.AlertRules, reg)
	for i, u := range opts.ReplicaHTTP {
		p.states[i].url = strings.TrimRight(u, "/")
	}
	return p
}

func (p *ledgerPlane) loop() {
	defer p.rt.wg.Done()
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.rt.stop:
			return
		case <-t.C:
			p.scrapeOnce(time.Now())
		}
	}
}

// scrapeOnce pulls every replica's ledger, merges, evaluates alerts, and
// publishes the aggregate. It is the loop body, exported to tests via
// Router.ScrapeLedgers for deterministic single-step evaluation; it must
// only run from one goroutine at a time.
func (p *ledgerPlane) scrapeOnce(now time.Time) {
	p.scrapes.Add(1)
	ok := 0
	for i := range p.states {
		st := &p.states[i]
		snap, err := p.fetch(st.url + "/debug/ledger")
		if st.lastAdvance.IsZero() {
			// First contact (successful or not) starts the staleness clock;
			// a replica that never answers must still go stale.
			st.lastAdvance = now
		}
		if err != nil {
			st.err = err.Error()
			p.scrapeErrors.Add(1)
			continue
		}
		st.err = ""
		st.snap = snap
		st.haveSnap = true
		ok++
		if snap.Decisions > st.lastDecisions {
			st.lastDecisions = snap.Decisions
			st.lastAdvance = now
		}
	}
	p.replicasOK.Set(float64(ok))

	reps := make([]ledger.ReplicaLedger, len(p.states))
	snaps := make([]ledger.Snapshot, 0, len(p.states))
	for i, st := range p.states {
		reps[i] = ledger.ReplicaLedger{
			Addr:            st.url,
			Snapshot:        st.snap,
			Err:             st.err,
			LastAdvanceUnix: st.lastAdvance.Unix(),
		}
		if st.haveSnap {
			snaps = append(snaps, st.snap)
		}
	}
	merged := ledger.Merge(snaps...)
	states := p.alerts.Eval(now, merged, reps)

	p.decisions.Set(float64(merged.Decisions))
	p.savedPJ.Set(float64(merged.SavedPJ()))
	p.savedRatio.Set(merged.SavedRatio())
	p.lossMean.Set(merged.MeanPerfLoss() * 1e6)
	p.burn.Set(merged.BudgetBurn())
	nFiring := 0
	for _, st := range states {
		if st.Firing {
			nFiring++
		}
	}
	p.firing.Set(float64(nFiring))

	p.agg.Store(&LedgerAggregate{
		AtUnix:   now.Unix(),
		Merged:   merged,
		Replicas: reps,
		Alerts:   states,
	})
}

func (p *ledgerPlane) fetch(url string) (ledger.Snapshot, error) {
	body, err := getLedger(p.client, url)
	if err != nil {
		return ledger.Snapshot{}, err
	}
	return ledger.ReadSnapshot(bytes.NewReader(body))
}

// ScrapeLedgers runs one synchronous ledger scrape+merge+alert pass
// (normally the background loop's job) and reports whether the plane is
// enabled. Tests use it to step the plane deterministically; it must not
// race the background loop, so call it only on routers built with a very
// long ScrapeInterval.
func (rt *Router) ScrapeLedgers(now time.Time) bool {
	if rt.plane == nil {
		return false
	}
	rt.plane.scrapeOnce(now)
	return true
}

// LedgerAggregate returns the newest merged fleet ledger view, or nil
// when the plane is disabled or has not completed a scrape yet.
func (rt *Router) LedgerAggregate() *LedgerAggregate {
	if rt.plane == nil {
		return nil
	}
	return rt.plane.agg.Load()
}

// handleLedger serves the merged fleet ledger at /debug/ledger. 404 when
// the plane is disabled, 503 before the first scrape completes.
func (rt *Router) handleLedger(w http.ResponseWriter, r *http.Request) {
	if rt.plane == nil {
		http.Error(w, "ledger aggregation disabled (no -replica-http)", http.StatusNotFound)
		return
	}
	agg := rt.plane.agg.Load()
	if agg == nil {
		http.Error(w, "no ledger scrape completed yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", telemetry.ContentTypeJSON)
	if err := agg.WriteJSON(w); err != nil {
		rt.opts.Logf("fleet: ledger write: %v", err)
	}
}
