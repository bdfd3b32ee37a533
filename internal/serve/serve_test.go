package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/nn"
	"ssmdvfs/internal/telemetry"
)

// testModel builds a small untrained (but deterministic) model: serving
// correctness is about transport and concurrency, not accuracy.
func testModel(tb testing.TB, seed int64) *core.Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	dec, err := nn.NewMLP([]int{6, 16, 6}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	cal, err := nn.NewMLP([]int{7, 16, 1}, rng)
	if err != nil {
		tb.Fatal(err)
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

// levelTotal sums the per-level decision counters of a registry snapshot.
func levelTotal(snap telemetry.Snapshot, levels int) int64 {
	var n int64
	for l := 0; l < levels; l++ {
		n += snap.Counters[telemetry.MetricID("serve_level_decisions_total", "level", strconv.Itoa(l))]
	}
	return n
}

func featureRow(rng *rand.Rand) []float64 {
	row := make([]float64, counters.Num)
	for j := range row {
		row[j] = rng.Float64() * 2
	}
	return row
}

// TestServeTCPEndToEnd runs concurrent binary-protocol clients against a
// live server while the model is hot-swapped mid-load: every request must
// succeed and the metrics must account for all of them.
func TestServeTCPEndToEnd(t *testing.T) {
	m := testModel(t, 1)
	srv, err := NewServer(m, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeTCP(l) }()

	// A second model on disk for the mid-load swap.
	swapPath := filepath.Join(t.TempDir(), "model.json")
	if err := testModel(t, 2).SaveFile(swapPath); err != nil {
		t.Fatal(err)
	}
	srv.opts.ModelPath = swapPath

	const (
		clients = 8
		batches = 40
		rowsPer = 4
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(l.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(c)))
			rows := make([]Request, rowsPer)
			for b := 0; b < batches; b++ {
				for i := range rows {
					rows[i] = Request{Preset: 0.1, Features: featureRow(rng)}
				}
				decs, err := cl.DecideKeyed(rows)
				if err != nil {
					t.Errorf("client %d batch %d: %v", c, b, err)
					return
				}
				if len(decs) != rowsPer {
					t.Errorf("client %d: got %d decisions, want %d", c, len(decs), rowsPer)
					return
				}
				for _, d := range decs {
					if d.Level < 0 || d.Level >= m.Levels {
						t.Errorf("client %d: level %d out of range", c, d.Level)
						return
					}
				}
				// Swap the model from one client mid-way through the load.
				if c == 0 && b == batches/2 {
					if err := srv.Reload(""); err != nil {
						t.Errorf("reload: %v", err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// The server counts a batch after flushing its response (the latency
	// it records includes the write), so a client can hold its last reply
	// a moment before the count moves.
	wantDecisions := int64(clients * batches * rowsPer)
	for deadline := time.Now().Add(5 * time.Second); srv.Metrics().Decisions.Load() < wantDecisions && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	met := srv.Metrics()
	if got := met.Decisions.Load(); got != wantDecisions {
		t.Fatalf("decisions = %d, want %d", got, wantDecisions)
	}
	if got := met.Errors.Load(); got != 0 {
		t.Fatalf("errors = %d, want 0 (hot swap must not fail requests)", got)
	}
	if got := met.Reloads.Load(); got != 1 {
		t.Fatalf("reloads = %d, want 1", got)
	}
	snap := srv.Telemetry().Snapshot()
	if got := levelTotal(snap, m.Levels); got != wantDecisions {
		t.Fatalf("level counts sum to %d, want %d", got, wantDecisions)
	}
	if lat := snap.Histograms["serve_batch_latency_us"]; lat.P50 <= 0 || lat.P99 < lat.P50 {
		t.Fatalf("latency percentiles implausible: p50=%g p99=%g", lat.P50, lat.P99)
	}

	srv.Close()
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
}

// TestServeConnMalformedFrame checks that a protocol violation is
// answered with an error frame, counted, and the connection dropped.
func TestServeConnMalformedFrame(t *testing.T) {
	srv, err := NewServer(testModel(t, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	go srv.ServeConn(server)
	defer client.Close()

	// A frame with valid length but garbage payload.
	payload := []byte("this is not a request")
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	reply, err := ReadFrame(client, nil)
	if err != nil {
		t.Fatalf("no reply to a malformed frame: %v", err)
	}
	var pe *ProtoError
	if _, err := DecodeKeyedResponseFrame(reply, nil); !errors.As(err, &pe) {
		t.Fatalf("malformed frame answered with %v, want a ProtoError", err)
	}
	if got := srv.Metrics().Errors.Load(); got == 0 {
		t.Fatal("protocol error not counted")
	}
}

func TestHTTPAPI(t *testing.T) {
	m := testModel(t, 4)
	srv, err := NewServer(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Reload from an explicit path.
	path := filepath.Join(t.TempDir(), "m.json")
	if err := testModel(t, 5).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	resp := post("/reload", map[string]any{"path": path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/reload status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Reload with no path configured fails without killing the server.
	resp = post("/reload", map[string]any{})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("/reload without path status %d, want 500", resp.StatusCode)
	}
	resp.Body.Close()

	// The registry snapshot reflects the traffic.
	mresp, err := http.Get(ts.URL + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := telemetry.ReadSnapshot(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["serve_reloads_total"]; got != 1 {
		t.Fatalf("/telemetry reloads = %d, want 1", got)
	}

	// Model info.
	iresp, err := http.Get(ts.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Levels int `json:"levels"`
		Params int `json:"params"`
	}
	if err := json.NewDecoder(iresp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if info.Levels != m.Levels || info.Params == 0 {
		t.Fatalf("model info = %+v", info)
	}

	// Health.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", hresp.StatusCode)
	}
}

// TestServedDecisionsMatchDirectModel pins the serving path to the plain
// in-process inference: same features, same model, same answers.
func TestServedDecisionsMatchDirectModel(t *testing.T) {
	m := testModel(t, 6)
	srv, err := NewServer(m, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	go srv.ServeConn(server)
	defer client.Close()

	cl := NewClient(client)
	rng := rand.New(rand.NewSource(11))
	rows := make([]Request, 32)
	for i := range rows {
		rows[i] = Request{Preset: 0.15, Features: featureRow(rng)}
	}
	decs, err := cl.DecideKeyed(rows)
	if err != nil {
		t.Fatal(err)
	}
	inf := core.NewInference(m)
	for i, row := range rows {
		wantLevel := inf.DecideLevel(row.Features, row.Preset)
		wantPred := inf.PredictInstructions(row.Features, row.Preset, wantLevel)
		if decs[i].Level != wantLevel {
			t.Fatalf("row %d: served level %d, direct %d", i, decs[i].Level, wantLevel)
		}
		if diff := decs[i].PredInstr - wantPred; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("row %d: served prediction %g, direct %g", i, decs[i].PredInstr, wantPred)
		}
	}
}
