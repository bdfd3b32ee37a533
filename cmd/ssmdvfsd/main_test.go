package main

import (
	"bytes"
	"io"
	"math/rand"
	"net"
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

// TestBuildMuxObservabilityEndpoints checks what each read-out endpoint
// says: the two registry expositions the serving package mounts, and the
// pprof and /debug/adapt routes only the daemon binary adds over them.
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

	// Open connections rise and fall, so the exposition must not call them
	// a counter.
	if code, body := get("/metrics.prom"); code != http.StatusOK ||
		!strings.Contains(body, "# TYPE serve_decisions_total counter") ||
		!strings.Contains(body, "# TYPE serve_open_conns gauge") {
		t.Fatalf("/metrics.prom → %d:\n%s", code, body)
	}
	if code, body := get("/telemetry"); code != http.StatusOK ||
		!strings.Contains(body, "serve_batches_total") {
		t.Fatalf("/telemetry → %d:\n%s", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline → %d", code)
	}
	// /healthz reports the degradation state machine.
	if code, body := get("/healthz"); code != http.StatusOK ||
		!strings.Contains(body, `"state":"healthy"`) {
		t.Fatalf("/healthz → %d %q", code, body)
	}
	// With -adapt, the controller's state and transition log are mounted.
	if code, body := get("/debug/adapt"); code != http.StatusOK ||
		!strings.Contains(body, `"state": "monitoring"`) {
		t.Fatalf("/debug/adapt → %d:\n%s", code, body)
	}
}

// TestBuildMuxLedgerAndContentTypes is the daemon tier's route table, on
// a daemon with every plane armed: each route answers with its documented
// Content-Type, the routes deleted with the JSON decision transport and
// the legacy snapshot are 404, /telemetry parses as a registry snapshot,
// the ledger snapshot is scrapable, and the Prometheus text (carrying
// ledger_* series) is promlint-clean.
func TestBuildMuxLedgerAndContentTypes(t *testing.T) {
	srv, err := serve.NewServer(testModel(t), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(256, provenance.MonitorOptions{})
	led := ledger.New(ledger.Options{Registry: srv.Telemetry()})
	srv.SetLedger(led)
	ctrl, err := adapt.NewController(srv.Engine, adapt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(buildMux(srv, ctrl))
	defer ts.Close()

	// Serve a few decisions over the binary protocol so the ledger has mass.
	client, server := net.Pipe()
	go srv.ServeConn(server)
	defer client.Close()
	rng := rand.New(rand.NewSource(9))
	rows := make([]serve.Request, 20)
	for i := range rows {
		row := make([]float64, counters.Num)
		for j := range row {
			row[j] = rng.Float64() * 2
		}
		rows[i] = serve.Request{Preset: 0.1, Features: row, GPU: -1, Cluster: -1}
	}
	if _, err := serve.NewClient(client).DecideKeyed(rows); err != nil {
		t.Fatal(err)
	}
	srv.Close() // the planes see a frame after its reply; Close waits for them

	bodies := map[string][]byte{}
	cases := []struct {
		path string
		code int
		want string // Content-Type of a 200
	}{
		{"/metrics.prom", http.StatusOK, telemetry.ContentTypeProm},
		{"/telemetry", http.StatusOK, telemetry.ContentTypeJSON},
		{"/healthz", http.StatusOK, telemetry.ContentTypeJSON},
		{"/model", http.StatusOK, telemetry.ContentTypeJSON},
		{"/reload", http.StatusMethodNotAllowed, ""}, // POST only
		{"/debug/decisions", http.StatusOK, telemetry.ContentTypeNDJSON},
		{"/debug/ledger", http.StatusOK, telemetry.ContentTypeJSON},
		{"/debug/adapt", http.StatusOK, telemetry.ContentTypeJSON},
		{"/debug/pprof/cmdline", http.StatusOK, "text/plain; charset=utf-8"},
		{"/metrics", http.StatusNotFound, ""}, // the legacy JSON snapshot
		{"/decide", http.StatusNotFound, ""},  // decisions travel as binary frames
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		bodies[tc.path], err = io.ReadAll(resp.Body)
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
	}

	tsnap, err := telemetry.ReadSnapshot(bytes.NewReader(bodies["/telemetry"]))
	if err != nil {
		t.Fatal(err)
	}
	// Counted before the reply leaves, unlike serve_decisions_total.
	if got := tsnap.Counters[telemetry.MetricID("serve_infer_rows_total", "backend", "float64")]; got != 20 {
		t.Fatalf("/telemetry inference rows = %d, want 20", got)
	}

	snap, err := ledger.ReadSnapshot(bytes.NewReader(bodies["/debug/ledger"]))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Decisions != 20 {
		t.Fatalf("ledger snapshot decisions = %d, want 20", snap.Decisions)
	}

	prom := bodies["/metrics.prom"]
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

// TestFlightrecArmsPredFeedback: -flightrec alone (no -adapt) realizes
// the prediction error of a keyed client's previous epoch, so the drift
// monitor's MAPE (prov_pred_mape) is fed.
func TestFlightrecArmsPredFeedback(t *testing.T) {
	srv, err := serve.NewServer(testModel(t), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if led := armPlanes(srv, 64, 0, false, t.Logf); led != nil {
		t.Fatal("ledger armed without -ledger")
	}
	rng := rand.New(rand.NewSource(2))
	keyed := func() serve.Request {
		f := make([]float64, counters.Num)
		for i := range f {
			f[i] = 1 + 100*rng.Float64()
		}
		return serve.Request{Preset: 0.1, Features: f, GPU: 0, Cluster: 1}
	}
	d1 := srv.DecideBatch([]serve.Request{keyed()}, nil)[0]
	if d1.Reason != provenance.ReasonModel || d1.PredInstr == 0 {
		t.Fatalf("epoch 1 = %+v, want a model prediction", d1)
	}
	r2 := keyed()
	r2.Features[counters.IdxInstr] = d1.PredInstr * 1.25
	srv.DecideBatch([]serve.Request{r2}, nil)

	st := srv.QualityMonitor().DriftState()
	if st.ErrSamples != 1 || st.MAPE == 0 {
		t.Fatalf("drift state %+v, want one realized prediction error", st)
	}
}
