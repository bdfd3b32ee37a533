package main

import (
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/fleet"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/nn"
	"ssmdvfs/internal/serve"
	"ssmdvfs/internal/telemetry"
)

func testModel(t *testing.T) *core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	dec, err := nn.NewMLP([]int{6, 16, 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := nn.NewMLP([]int{7, 16, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	identity := func(n int) *counters.Scaler {
		s := &counters.Scaler{Mean: make([]float64, n), Std: make([]float64, n)}
		for i := range s.Std {
			s.Std[i] = 1
		}
		return s
	}
	return &core.Model{
		FeatureIdx:     counters.SelectedFive(),
		Levels:         6,
		Decision:       dec,
		Calibrator:     cal,
		DecisionScaler: identity(6),
		CalibScaler:    identity(7),
		TargetScale:    1000,
		PresetSamples:  1,
	}
}

func TestSplitAddrs(t *testing.T) {
	got := splitAddrs(" a:1, b:2 ,,c:3 ")
	if want := []string{"a:1", "b:2", "c:3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("splitAddrs = %v, want %v", got, want)
	}
	if got := splitAddrs(""); got != nil {
		t.Fatalf("splitAddrs(\"\") = %v", got)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	logf := func(string, ...any) {}
	if err := run(fleet.Options{}, ":0", "", logf); err == nil {
		t.Fatal("empty replica set accepted")
	}
	if err := run(fleet.Options{Replicas: []string{"x:1"}}, "", "", logf); err == nil {
		t.Fatal("missing -tcp accepted")
	}
}

// TestFleetMetricsExposition pins the acceptance contract: after routed
// traffic, the fleet_* series are visible on the router's /metrics.prom.
func TestFleetMetricsExposition(t *testing.T) {
	srv, err := serve.NewServer(testModel(t), serve.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Close()

	rt, err := fleet.NewRouter(fleet.Options{Replicas: []string{l.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	rng := rand.New(rand.NewSource(2))
	feats := make([]float64, counters.Num)
	for i := range feats {
		feats[i] = rng.Float64() * 2
	}
	decs := rt.Decide([]serve.Request{{Preset: 0.1, Features: feats, GPU: 1, Cluster: 2}}, nil)
	if len(decs) != 1 {
		t.Fatalf("%d decisions", len(decs))
	}

	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE fleet_rows_total counter",
		"# TYPE fleet_shed_rows_total counter",
		"# TYPE fleet_rerouted_rows_total counter",
		"# TYPE fleet_batch_rows histogram",
		`fleet_shard_rows_total{shard="0"} 1`,
		"fleet_healthy_replicas 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics.prom missing %q:\n%s", want, body)
		}
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d with a healthy replica", hz.StatusCode)
	}
}

// TestFleetLedgerExposition drives the -replica-http plane at the
// binary's config level: replica ledgers merge into ledger_fleet_* and
// alert_* series on /metrics.prom, /debug/ledger serves the aggregate
// with the right Content-Type, and the exposition is promlint-clean.
func TestFleetLedgerExposition(t *testing.T) {
	srv, err := serve.NewServer(testModel(t), serve.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLedger(ledger.New(ledger.Options{}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Close()
	replicaHTTP := httptest.NewServer(srv.Handler())
	defer replicaHTTP.Close()

	rules, err := ledger.ParseRules("burn>1.5;stale>10")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := fleet.NewRouter(fleet.Options{
		Replicas:       []string{l.Addr().String()},
		ReplicaHTTP:    []string{replicaHTTP.URL},
		ScrapeInterval: time.Hour, // stepped explicitly below
		AlertRules:     rules,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	rng := rand.New(rand.NewSource(3))
	rows := make([]serve.Request, 16)
	for i := range rows {
		feats := make([]float64, counters.Num)
		for j := range feats {
			feats[j] = rng.Float64() * 2
		}
		rows[i] = serve.Request{Preset: 0.1, Features: feats, GPU: int32(i), Cluster: 1}
	}
	if decs := rt.Decide(rows, nil); len(decs) != len(rows) {
		t.Fatalf("%d decisions for %d rows", len(decs), len(rows))
	}
	srv.Close() // the replica's ledger sees a frame after its reply; Close waits for it
	if !rt.ScrapeLedgers(time.Now()) {
		t.Fatal("ledger plane not armed")
	}

	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Type"); got != telemetry.ContentTypeProm {
		t.Fatalf("/metrics.prom Content-Type = %q, want %q", got, telemetry.ContentTypeProm)
	}
	for _, want := range []string{
		"ledger_fleet_decisions", "ledger_fleet_energy_saved_pj",
		`alert_firing{rule="burn"}`, `alert_firing{rule="stale"}`,
		"serve_request_columns 47", "serve_column_resends_total 0", "fleet_shard_request_columns",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics.prom missing %q:\n%s", want, body)
		}
	}
	if errs := telemetry.LintProm(strings.NewReader(string(body))); len(errs) != 0 {
		t.Fatalf("/metrics.prom fails promlint: %v", errs)
	}

	lresp, err := http.Get(ts.URL + "/debug/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	if got := lresp.Header.Get("Content-Type"); got != telemetry.ContentTypeJSON {
		t.Fatalf("/debug/ledger Content-Type = %q, want %q", got, telemetry.ContentTypeJSON)
	}
	agg, err := fleet.ReadLedgerAggregate(lresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Shed rows are answered by the router's fallback without reaching a
	// replica, so the replica-side ledger may hold fewer decisions than
	// the batch — but some model-path traffic must have been accounted.
	if agg.Merged.Decisions <= 0 {
		t.Fatalf("merged ledger empty: %+v", agg.Merged)
	}
}
