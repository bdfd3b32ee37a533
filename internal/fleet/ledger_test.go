package fleet

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/serve"
	"ssmdvfs/internal/telemetry"
)

// ledgeredReplica runs one in-process replica with the efficiency ledger
// enabled and its HTTP surface on loopback.
func ledgeredReplica(tb testing.TB, seed int64) (tcpAddr, httpURL string, srv *serve.Server) {
	tb.Helper()
	var addr string
	addr, srv = startReplica(tb, seed, serve.Options{})
	srv.SetLedger(ledger.New(ledger.Options{}))
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(ts.Close)
	return addr, ts.URL, srv
}

func feedReplica(tb testing.TB, srv *serve.Server, n int, seed int64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([]serve.Request, n)
	for i := range rows {
		rows[i] = serve.Request{Preset: 0.1, Features: featureRow(rng), GPU: int32(i), Cluster: 0}
	}
	if got := srv.DecideBatch(rows, nil); len(got) != n {
		tb.Fatalf("%d decisions for %d rows", len(got), n)
	}
}

// TestRouterLedgerScrapeAndMerge drives the aggregation plane end to
// end: two ledgered replicas serve traffic, the router scrapes both over
// HTTP, and the merged aggregate (decision sums, fleet gauges,
// /debug/ledger payload, prom exposition) reflects the whole fleet.
func TestRouterLedgerScrapeAndMerge(t *testing.T) {
	tcp1, url1, srv1 := ledgeredReplica(t, 100)
	tcp2, url2, srv2 := ledgeredReplica(t, 101)
	feedReplica(t, srv1, 30, 1)
	feedReplica(t, srv2, 50, 2)

	rt, err := NewRouter(Options{
		Replicas:       []string{tcp1, tcp2},
		ReplicaHTTP:    []string{url1, url2},
		ScrapeInterval: time.Hour, // tests step the plane explicitly
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	now := time.Unix(50_000, 0)
	if !rt.ScrapeLedgers(now) {
		t.Fatal("ledger plane not enabled despite ReplicaHTTP")
	}
	agg := rt.LedgerAggregate()
	if agg == nil {
		t.Fatal("no aggregate after scrape")
	}
	if agg.Merged.Decisions != 80 {
		t.Fatalf("merged decisions = %d, want 80", agg.Merged.Decisions)
	}
	if len(agg.Replicas) != 2 || agg.Replicas[0].Err != "" || agg.Replicas[1].Err != "" {
		t.Fatalf("replica states = %+v", agg.Replicas)
	}
	if agg.Merged.EnergyMaxPJ <= 0 {
		t.Fatalf("merged snapshot has no energy accounting: %+v", agg.Merged)
	}

	// Fleet gauges ride the router registry.
	reg := rt.Telemetry()
	if got := reg.Gauge("ledger_fleet_decisions").Value(); got != 80 {
		t.Fatalf("ledger_fleet_decisions = %v, want 80", got)
	}
	if got := reg.Gauge("ledger_replicas_ok").Value(); got != 2 {
		t.Fatalf("ledger_replicas_ok = %v, want 2", got)
	}

	// /debug/ledger serves the aggregate with the right Content-Type.
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != telemetry.ContentTypeJSON {
		t.Fatalf("/debug/ledger Content-Type = %q, want %q", got, telemetry.ContentTypeJSON)
	}
	got, err := ReadLedgerAggregate(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Merged.Decisions != 80 {
		t.Fatalf("served aggregate decisions = %d, want 80", got.Merged.Decisions)
	}
}

// TestRouterLedgerStaleAlertFiresAndClears exercises a full alert
// lifecycle through the plane: a replica whose ledger stops advancing
// goes stale (fire), then advances again (clear).
func TestRouterLedgerStaleAlertFiresAndClears(t *testing.T) {
	// A stub replica whose ledger snapshot the test scripts directly.
	decisions := int64(10)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/ledger" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", telemetry.ContentTypeJSON)
		ledger.Snapshot{Decisions: decisions, EnergyMaxPJ: 1000, EnergyPJ: 800}.WriteJSON(w)
	}))
	defer stub.Close()

	rt, err := NewRouter(Options{
		Replicas:       []string{"127.0.0.1:1"}, // never dialed by this test
		ReplicaHTTP:    []string{stub.URL},
		ScrapeInterval: time.Hour,
		AlertRules:     []ledger.Rule{{Kind: ledger.KindStale, Threshold: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	base := time.Unix(80_000, 0)
	rt.ScrapeLedgers(base) // first contact: watermark starts
	if agg := rt.LedgerAggregate(); agg.Alerts[0].Firing {
		t.Fatalf("stale fired immediately: %+v", agg.Alerts[0])
	}

	// The ledger stops advancing for 30 s of scrapes → fire.
	rt.ScrapeLedgers(base.Add(30 * time.Second))
	agg := rt.LedgerAggregate()
	if !agg.Alerts[0].Firing {
		t.Fatalf("stale alert did not fire: %+v", agg.Alerts[0])
	}
	if got := rt.Telemetry().Gauge("alert_firing", "rule", "stale").Value(); got != 1 {
		t.Fatalf("alert_firing{rule=stale} = %v, want 1", got)
	}
	if got := rt.Telemetry().Gauge("ledger_alerts_firing").Value(); got != 1 {
		t.Fatalf("ledger_alerts_firing = %v, want 1", got)
	}

	// Decisions advance again → clear.
	decisions = 500
	rt.ScrapeLedgers(base.Add(31 * time.Second))
	agg = rt.LedgerAggregate()
	if agg.Alerts[0].Firing {
		t.Fatalf("stale alert did not clear: %+v", agg.Alerts[0])
	}
	if got := rt.Telemetry().Gauge("alert_firing", "rule", "stale").Value(); got != 0 {
		t.Fatalf("alert_firing{rule=stale} = %v, want 0", got)
	}

	// Both transitions are counted.
	if got := rt.Telemetry().Counter("alert_transitions_total", "rule", "stale").Load(); got != 2 {
		t.Fatalf("alert_transitions_total{rule=stale} = %d, want 2", got)
	}
}

// TestRouterLedgerScrapeErrorCountsAndGoesStale: a replica without a
// ledger (404) is a scrape error and eventually a stale alert — the
// deliberate-trigger path ledger_smoke.sh uses.
func TestRouterLedgerScrapeErrorCountsAndGoesStale(t *testing.T) {
	noLedger := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer noLedger.Close()

	rt, err := NewRouter(Options{
		Replicas:       []string{"127.0.0.1:1"},
		ReplicaHTTP:    []string{noLedger.URL},
		ScrapeInterval: time.Hour,
		AlertRules:     []ledger.Rule{{Kind: ledger.KindStale, Threshold: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	base := time.Unix(90_000, 0)
	rt.ScrapeLedgers(base)
	rt.ScrapeLedgers(base.Add(10 * time.Second))
	if got := rt.Telemetry().Counter("ledger_scrape_errors_total").Load(); got != 2 {
		t.Fatalf("ledger_scrape_errors_total = %d, want 2", got)
	}
	agg := rt.LedgerAggregate()
	if !agg.Alerts[0].Firing {
		t.Fatalf("stale alert did not fire for ledger-less replica: %+v", agg.Alerts[0])
	}
	if agg.Replicas[0].Err == "" {
		t.Fatal("replica state does not carry the scrape error")
	}
}

// TestRouterLedgerDisabled pins the off state: no ReplicaHTTP → no
// plane, /debug/ledger 404s, ScrapeLedgers reports disabled.
func TestRouterLedgerDisabled(t *testing.T) {
	rt, err := NewRouter(Options{Replicas: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.ScrapeLedgers(time.Now()) {
		t.Fatal("ScrapeLedgers reported enabled without ReplicaHTTP")
	}
	if rt.LedgerAggregate() != nil {
		t.Fatal("aggregate non-nil without ReplicaHTTP")
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/ledger")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/ledger = %d without plane, want 404", resp.StatusCode)
	}
}

// TestRouterHandlerContentTypes is the router tier's route table: every
// route answers with its documented Content-Type, /metrics.prom lints
// clean, /telemetry parses as a registry snapshot, and the routes a router
// never had or no longer has are 404.
func TestRouterHandlerContentTypes(t *testing.T) {
	tcp1, url1, srv1 := ledgeredReplica(t, 104)
	feedReplica(t, srv1, 10, 3)
	rt, err := NewRouter(Options{
		Replicas:       []string{tcp1},
		ReplicaHTTP:    []string{url1},
		ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.ScrapeLedgers(time.Unix(1_000_000, 0))

	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	cases := []struct {
		path string
		code int
		want string // Content-Type of a 200
	}{
		{"/metrics.prom", http.StatusOK, telemetry.ContentTypeProm},
		{"/telemetry", http.StatusOK, telemetry.ContentTypeJSON},
		{"/healthz", http.StatusOK, telemetry.ContentTypeJSON},
		{"/debug/ledger", http.StatusOK, telemetry.ContentTypeJSON},
		{"/metrics", http.StatusNotFound, ""}, // was /telemetry under another name
		{"/decide", http.StatusNotFound, ""},  // decisions travel as binary frames
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		if resp.StatusCode != tc.code {
			t.Fatalf("GET %s → %d, want %d", tc.path, resp.StatusCode, tc.code)
		}
		if got := resp.Header.Get("Content-Type"); tc.code == http.StatusOK && got != tc.want {
			t.Fatalf("GET %s: Content-Type %q, want %q", tc.path, got, tc.want)
		}
		switch tc.path {
		case "/metrics.prom":
			if errs := telemetry.LintProm(bytes.NewReader(body)); len(errs) != 0 {
				t.Fatalf("/metrics.prom fails promlint: %v", errs)
			}
		case "/telemetry":
			snap, err := telemetry.ReadSnapshot(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := snap.Counters["fleet_requests_total"]; !ok {
				t.Fatalf("/telemetry snapshot carries no fleet counters: %v", snap.Counters)
			}
		}
	}
}

// TestFetchLedgerAcceptsReplicaAndFleetShapes points FetchLedger at both
// tiers' /debug/ledger: a replica's bare snapshot and the router's
// aggregate over it.
func TestFetchLedgerAcceptsReplicaAndFleetShapes(t *testing.T) {
	tcp1, url1, srv1 := ledgeredReplica(t, 106)
	feedReplica(t, srv1, 12, 5)
	rt, err := NewRouter(Options{
		Replicas:       []string{tcp1},
		ReplicaHTTP:    []string{url1},
		ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	at := time.Unix(1_000_000, 0)
	rt.ScrapeLedgers(at)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	rep, isFleet, err := FetchLedger(url1)
	if err != nil {
		t.Fatal(err)
	}
	if isFleet {
		t.Fatal("bare snapshot taken for a fleet aggregate")
	}
	if rep.Merged.Decisions != 12 || rep.Replicas != nil || rep.Alerts != nil {
		t.Fatalf("replica view = %+v", rep)
	}

	agg, isFleet, err := FetchLedger(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !isFleet {
		t.Fatal("aggregate not detected as fleet shape")
	}
	if agg.Merged.Decisions != 12 || len(agg.Replicas) != 1 || len(agg.Alerts) != len(ledger.DefaultRules()) || agg.AtUnix != at.Unix() {
		t.Fatalf("fleet view = %+v", agg)
	}
}

// TestFleetPromExpositionLintClean runs the promlint satellite over the
// router registry with the ledger plane active.
func TestFleetPromExpositionLintClean(t *testing.T) {
	tcp1, url1, srv1 := ledgeredReplica(t, 105)
	feedReplica(t, srv1, 20, 4)
	rt, err := NewRouter(Options{
		Replicas:       []string{tcp1},
		ReplicaHTTP:    []string{url1},
		ScrapeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.ScrapeLedgers(time.Unix(1_000_000, 0))

	var buf bytes.Buffer
	if err := rt.Telemetry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if errs := telemetry.LintProm(bytes.NewReader(buf.Bytes())); len(errs) != 0 {
		t.Fatalf("fleet exposition fails promlint: %v\n%s", errs, buf.String())
	}
	for _, name := range []string{"ledger_fleet_decisions", "ledger_fleet_energy_saved_pj", "alert_firing"} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Fatalf("fleet exposition missing %s", name)
		}
	}
}

// TestFetchLedgerGivesUpOnSilentPeer: a peer that accepts the request and
// never answers costs FetchLedger its timeout, not the caller's life.
func TestFetchLedgerGivesUpOnSilentPeer(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer silent.Close()
	defer close(release)

	done := make(chan error, 1)
	go func() {
		_, _, err := FetchLedger(silent.URL)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("FetchLedger returned no error from a peer that never answered")
		}
	case <-time.After(fetchLedgerTimeout + 5*time.Second):
		t.Fatalf("FetchLedger still blocked %v after asking a silent peer", fetchLedgerTimeout+5*time.Second)
	}
}

// TestReadLedgerAggregateValidatesSnapshots: a snapshot ledger.ReadSnapshot
// refuses (a histogram wider than the ledger writes) is refused inside an
// aggregate too, as the merged snapshot and as a replica's.
func TestReadLedgerAggregateValidatesSnapshots(t *testing.T) {
	var wide ledger.Snapshot
	wide.SavedHist.Buckets = make([]int64, telemetry.DefaultHistBuckets+1)
	var one bytes.Buffer
	if err := wide.WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.ReadSnapshot(&one); err == nil {
		t.Fatal("ledger.ReadSnapshot accepted a histogram wider than the ledger writes")
	}
	for name, a := range map[string]LedgerAggregate{
		"merged":  {Merged: wide},
		"replica": {Replicas: []ledger.ReplicaLedger{{Addr: "r0", Snapshot: wide}}},
	} {
		var buf bytes.Buffer
		if err := a.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadLedgerAggregate(&buf); err == nil {
			t.Errorf("%s: ReadLedgerAggregate accepted a snapshot ledger.ReadSnapshot refuses", name)
		}
	}
}
