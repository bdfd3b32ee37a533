package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/fleet"
	"ssmdvfs/internal/ledger"
)

// testSnapshot builds a real ledger, feeds it deterministic decisions,
// and returns its snapshot — so the dashboard is tested against the
// exact shape replicas serve.
func testSnapshot(t *testing.T, n int) ledger.Snapshot {
	t.Helper()
	led := ledger.New(ledger.Options{Now: func() time.Time { return time.Unix(100, 0) }})
	feats := make([]float64, counters.Num)
	for i := range feats {
		feats[i] = float64(i%7) * 0.5
	}
	for i := 0; i < n; i++ {
		led.Observe(int32(i%3), 1, i%6, feats, 0.1)
	}
	return led.Snapshot()
}

func TestRenderFleetFrame(t *testing.T) {
	snap := testSnapshot(t, 30)
	const src = "http://router:8093"
	v := &fleet.LedgerAggregate{
		AtUnix: 1700000000,
		Merged: snap,
		Replicas: []ledger.ReplicaLedger{
			{Addr: "http://r1:8090", Snapshot: snap},
			{Addr: "http://r2:8090", Err: "404 Not Found"},
		},
		Alerts: []ledger.AlertState{
			{Rule: ledger.Rule{Name: "burn", Threshold: 1.5}, Value: 2.25, Firing: true, Detail: "window burn"},
			{Rule: ledger.Rule{Name: "stale", Threshold: 15}, Value: 0},
		},
	}
	var buf bytes.Buffer
	render(&buf, src, v, true)
	out := buf.String()
	for _, want := range []string{
		"fleet efficiency ledger",
		"http://router:8093",
		"energy saved",
		"decisions",
		"alerts: 1/2 firing",
		"FIRING",
		"burn",
		"window burn",
		"level=0",
		"cluster=0",
		"http://r1:8090",
		"ERR 404 Not Found",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("frame missing %q:\n%s", want, out)
		}
	}

	// Frames are deterministic: the same view renders byte-identically.
	var again bytes.Buffer
	render(&again, src, v, true)
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("render is not deterministic for the same view")
	}
}

func TestRenderReplicaFrameOmitsFleetSections(t *testing.T) {
	var buf bytes.Buffer
	render(&buf, "http://r1", &fleet.LedgerAggregate{Merged: testSnapshot(t, 5)}, false)
	out := buf.String()
	if !strings.Contains(out, "replica efficiency ledger") {
		t.Fatalf("missing replica scope line:\n%s", out)
	}
	for _, nope := range []string{"alerts:", "scraped", "status"} {
		if strings.Contains(out, nope) {
			t.Fatalf("replica frame unexpectedly contains %q:\n%s", nope, out)
		}
	}
}

// TestRunOnceAgainstHTTP drives the full -once path against both server
// shapes over real HTTP.
func TestRunOnceAgainstHTTP(t *testing.T) {
	snap := testSnapshot(t, 8)

	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/ledger" {
			http.NotFound(w, r)
			return
		}
		snap.WriteJSON(w)
	}))
	defer replica.Close()
	var buf bytes.Buffer
	if err := run(&buf, replica.URL+"/", 0, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "replica efficiency ledger") {
		t.Fatalf("replica -once frame:\n%s", buf.String())
	}

	agg := fleet.LedgerAggregate{AtUnix: 1700000000, Merged: snap,
		Replicas: []ledger.ReplicaLedger{{Addr: "r1", Snapshot: snap}}}
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		agg.WriteJSON(w)
	}))
	defer router.Close()
	buf.Reset()
	if err := run(&buf, router.URL, 0, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fleet efficiency ledger") {
		t.Fatalf("fleet -once frame:\n%s", buf.String())
	}
}

func TestRunOnceSurfacesHTTPError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "ledger disabled", http.StatusNotFound)
	}))
	defer ts.Close()
	err := run(&bytes.Buffer{}, ts.URL, 0, true)
	if err == nil || !strings.Contains(err.Error(), "ledger disabled") {
		t.Fatalf("err = %v, want ledger-disabled error", err)
	}
}
