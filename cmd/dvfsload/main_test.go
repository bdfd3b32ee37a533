package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/epochtrace"
	"ssmdvfs/internal/fleet"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/serve"
)

func TestSyntheticRowsCoverDecisionSpace(t *testing.T) {
	rows := syntheticRows(256, 1)
	if len(rows) != 256 {
		t.Fatalf("%d rows", len(rows))
	}
	var lowIPC, highIPC bool
	for _, r := range rows {
		if len(r) != counters.Num {
			t.Fatalf("row width %d, want %d", len(r), counters.Num)
		}
		if r[counters.IdxIPC] < 0.5 {
			lowIPC = true
		}
		if r[counters.IdxIPC] > 1.5 {
			highIPC = true
		}
	}
	if !lowIPC || !highIPC {
		t.Fatal("synthetic family does not span memory- to compute-bound")
	}
}

// TestLedgerSummary drives the -ledger exit-report tail against both
// payload shapes a /debug/ledger endpoint can serve.
func TestLedgerSummary(t *testing.T) {
	led := ledger.New(ledger.Options{Now: func() time.Time { return time.Unix(100, 0) }})
	feats := make([]float64, counters.Num)
	for i := range feats {
		feats[i] = float64(i%5) * 0.4
	}
	for i := 0; i < 10; i++ {
		led.Observe(1, 1, i%6, feats, 0.1)
	}
	snap := led.Snapshot()

	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap.WriteJSON(w)
	}))
	defer replica.Close()
	var buf bytes.Buffer
	if err := ledgerSummary(&buf, replica.URL); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"replica efficiency ledger", "energy saved", "10 decisions", "perf loss"} {
		if !strings.Contains(out, want) {
			t.Fatalf("replica summary missing %q:\n%s", want, out)
		}
	}

	agg := fleet.LedgerAggregate{
		AtUnix: 1700000000,
		Merged: snap,
		Alerts: []ledger.AlertState{
			{Rule: ledger.Rule{Name: "burn", Threshold: 1.5}, Value: 2.0, Firing: true},
		},
	}
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		agg.WriteJSON(w)
	}))
	defer router.Close()
	buf.Reset()
	if err := ledgerSummary(&buf, router.URL+"/"); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{"fleet efficiency ledger", "alerts: 1/1 firing", "FIRING  burn"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet summary missing %q:\n%s", want, out)
		}
	}
}

func TestLedgerSummaryDisabledEndpointErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "ledger disabled", http.StatusNotFound)
	}))
	defer ts.Close()
	err := ledgerSummary(&bytes.Buffer{}, ts.URL)
	if err == nil || !strings.Contains(err.Error(), "ledger disabled") {
		t.Fatalf("err = %v, want ledger-disabled error", err)
	}
}

// TestTraceWithNoEpochsRefused: a -trace file that parses but holds no
// rows (a header-only CSV) stops the run before any connection is dialed.
func TestTraceWithNoEpochsRefused(t *testing.T) {
	var csv bytes.Buffer
	if err := (&epochtrace.Trace{}).WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "empty.csv")
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run("127.0.0.1:1", 1, 1, time.Second, 0, 0.1, path, 16, 1, false, serve.DialOptions{}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "no epochs") {
		t.Fatalf("err = %v, want a no-epochs refusal", err)
	}
}
