package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ssmdvfs/internal/adapt"
	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/nn"
	"ssmdvfs/internal/provenance"
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

// TestBuildMuxObservabilityEndpoints checks the daemon-only endpoints the
// serving package does not provide: Prometheus exposition, the raw
// telemetry dump, and pprof — layered over the serving API.
func TestBuildMuxObservabilityEndpoints(t *testing.T) {
	srv, err := serve.NewServer(testModel(t), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(256, provenance.MonitorOptions{})
	ctrl, err := adapt.NewController(srv.Engine, adapt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(buildMux(srv, ctrl))
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics.prom"); code != http.StatusOK ||
		!strings.Contains(body, "# TYPE serve_decisions_total counter") {
		t.Fatalf("/metrics.prom → %d:\n%s", code, body)
	}
	if code, body := get("/telemetry"); code != http.StatusOK ||
		!strings.Contains(body, "serve_batches_total") {
		t.Fatalf("/telemetry → %d:\n%s", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline → %d", code)
	}
	// The serving API still answers underneath; /healthz now reports the
	// degradation state machine.
	if code, body := get("/healthz"); code != http.StatusOK ||
		!strings.Contains(body, `"state":"healthy"`) {
		t.Fatalf("/healthz → %d %q", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "latency_buckets_us") {
		t.Fatalf("/metrics → %d:\n%s", code, body)
	}
	// With -adapt, the controller's state and transition log are mounted.
	if code, body := get("/debug/adapt"); code != http.StatusOK ||
		!strings.Contains(body, `"state": "monitoring"`) {
		t.Fatalf("/debug/adapt → %d:\n%s", code, body)
	}
}

// TestBuildMuxLedgerAndContentTypes drives the -ledger wiring: decisions
// flow through the daemon mux, the ledger snapshot is scrapable, every
// exposition declares its exact Content-Type, and the Prometheus text
// (now carrying ledger_* series) is promlint-clean.
func TestBuildMuxLedgerAndContentTypes(t *testing.T) {
	srv, err := serve.NewServer(testModel(t), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(256, provenance.MonitorOptions{})
	led := ledger.New(ledger.Options{Registry: srv.Telemetry()})
	srv.SetLedger(led)
	ts := httptest.NewServer(buildMux(srv, nil))
	defer ts.Close()

	// Serve a few decisions through the HTTP API so the ledger has mass.
	rng := rand.New(rand.NewSource(9))
	row := make([]float64, counters.Num)
	for i := 0; i < 20; i++ {
		for j := range row {
			row[j] = rng.Float64() * 2
		}
		body, _ := json.Marshal(map[string]any{"features": row, "preset": 0.1})
		resp, err := http.Post(ts.URL+"/decide", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/decide → %d", resp.StatusCode)
		}
	}

	cases := []struct {
		path string
		want string
	}{
		{"/metrics.prom", telemetry.ContentTypeProm},
		{"/telemetry", telemetry.ContentTypeJSON},
		{"/healthz", telemetry.ContentTypeJSON},
		{"/metrics", telemetry.ContentTypeJSON},
		{"/debug/ledger", telemetry.ContentTypeJSON},
		{"/debug/decisions", telemetry.ContentTypeNDJSON},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s → %d", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != tc.want {
			t.Fatalf("GET %s: Content-Type %q, want %q", tc.path, got, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/ledger")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ledger.ReadSnapshot(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Decisions != 20 {
		t.Fatalf("ledger snapshot decisions = %d, want 20", snap.Decisions)
	}

	resp, err = http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(prom, []byte("ledger_decisions_total")) {
		t.Fatalf("/metrics.prom missing ledger series:\n%s", prom)
	}
	// The ledger prices whole rows, so this daemon asks for every column.
	if !bytes.Contains(prom, []byte("serve_request_columns 47\n")) || !bytes.Contains(prom, []byte("serve_column_resends_total 0\n")) {
		t.Fatalf("/metrics.prom missing the column series of a ledgered daemon:\n%s", prom)
	}
	if errs := telemetry.LintProm(bytes.NewReader(prom)); len(errs) != 0 {
		t.Fatalf("/metrics.prom fails promlint: %v", errs)
	}
}
