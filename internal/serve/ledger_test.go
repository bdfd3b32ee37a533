package serve

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// TestLedgerOnlineAgreesWithReplay: a trace served through the full
// decision path — model rows, rejected rows (a non-finite feature),
// fallback rows (an injected inference error every 97 rows) and a row too
// short to price in every batch — and re-priced offline by replaying the
// flight recorder leaves the same ledger: totals, skipped rows, groups
// and histograms are equal. Both price through Ledger.ObserveRecords, so
// only the rings differ (replay puts every row in window 0).
// `dvfsstat -ledger` still allows 2 %: a production dump may have lost its
// oldest records to ring eviction, or been scraped mid-traffic.
func TestLedgerOnlineAgreesWithReplay(t *testing.T) {
	inj, err := faults.Parse("serve.infer:error:every=97", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(testModel(t, 1), Options{Workers: 2, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(4096, provenance.MonitorOptions{})
	led := ledger.New(ledger.Options{})
	srv.SetLedger(led)

	rng := rand.New(rand.NewSource(99))
	rows := make([]Request, 64)
	var decs []Decision
	reasons := make(map[provenance.Reason]int)
	for batch := 0; batch < 8; batch++ {
		for i := range rows {
			rows[i] = Request{Preset: 0.1, Features: featureRow(rng), GPU: int32(i), Cluster: int32(batch)}
			switch {
			case i%11 == 5:
				rows[i].Features[3] = math.NaN()
			case i == 40:
				rows[i].Features = rows[i].Features[:5]
			}
		}
		decs = srv.DecideBatch(rows, decs[:0])
		if len(decs) != len(rows) {
			t.Fatalf("batch %d: %d decisions for %d rows", batch, len(decs), len(rows))
		}
		for _, d := range decs {
			reasons[d.Reason]++
		}
	}
	if reasons[provenance.ReasonModel] == 0 || reasons[provenance.ReasonRejected] == 0 || reasons[provenance.ReasonFallback] == 0 {
		t.Fatalf("trace lacks model, rejected or fallback rows: %v", reasons)
	}

	online := led.Snapshot()
	if online.Decisions != 8*63 || online.Skipped != 8 {
		t.Fatalf("online ledger priced %d decisions and skipped %d, want %d and 8", online.Decisions, online.Skipped, 8*63)
	}
	recs := srv.FlightRecorder().Snapshot(nil)
	if len(recs) != 8*64 {
		t.Fatalf("flight recorder holds %d records, want %d", len(recs), 8*64)
	}
	render := func(s ledger.Snapshot) []byte {
		s.SavedRing, s.LossRing, s.PresetRing = nil, nil, nil
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if got, want := render(ledger.ReplayRecords(recs)), render(online); !bytes.Equal(got, want) {
		t.Fatalf("replay differs from the online ledger:\n got %s\nwant %s", got, want)
	}
}

// TestLedgerDisabledPathZeroAlloc pins the acceptance criterion that a
// server without a ledger pays nothing for the feature existing.
func TestLedgerDisabledPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race (sync.Pool bypasses its caches)")
	}
	srv, err := NewServer(testModel(t, 3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rows := make([]Request, 8)
	for i := range rows {
		rows[i] = Request{Preset: 0.1, Features: featureRow(rng), GPU: -1, Cluster: -1}
	}
	decs := make([]Decision, 0, len(rows))
	decs = srv.decideBatch(rows, decs[:0]) // warm the pools

	allocs := testing.AllocsPerRun(200, func() {
		decs = srv.decideBatch(rows, decs[:0])
	})
	if allocs != 0 {
		t.Fatalf("decideBatch allocates %.1f objects/op with the ledger disabled, want 0", allocs)
	}
}

// BenchmarkDecide_LedgerDisabled is the alloc-guard benchmark CI runs
// (-benchmem must report 0 B/op).
func BenchmarkDecide_LedgerDisabled(b *testing.B) {
	srv, err := NewServer(testModel(b, 3), Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rows := make([]Request, 8)
	for i := range rows {
		rows[i] = Request{Preset: 0.1, Features: featureRow(rng), GPU: -1, Cluster: -1}
	}
	decs := srv.decideBatch(rows, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decs = srv.decideBatch(rows, decs[:0])
	}
}

// TestHandlerContentTypes is the table-driven exposition-header test:
// every HTTP endpoint must declare its exact Content-Type.
func TestHandlerContentTypes(t *testing.T) {
	srv, err := NewServer(testModel(t, 1), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(16, provenance.MonitorOptions{})
	srv.SetLedger(ledger.New(ledger.Options{}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		path string
		want string
	}{
		{"/healthz", telemetry.ContentTypeJSON},
		{"/metrics.prom", telemetry.ContentTypeProm},
		{"/telemetry", telemetry.ContentTypeJSON},
		{"/model", telemetry.ContentTypeJSON},
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
			t.Fatalf("GET %s: status %d", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != tc.want {
			t.Fatalf("GET %s: Content-Type %q, want %q", tc.path, got, tc.want)
		}
	}
}

// TestLedgerEndpointDisabled404s distinguishes "no ledger configured"
// from "ledger empty" for scrapers.
func TestLedgerEndpointDisabled404s(t *testing.T) {
	srv, err := NewServer(testModel(t, 1), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/ledger")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled ledger endpoint returned %d, want 404", resp.StatusCode)
	}
}

// TestLedgerEndpointServesSnapshot exercises the enabled endpoint end to
// end: decisions flow, the scraped snapshot parses, and it carries them.
func TestLedgerEndpointServesSnapshot(t *testing.T) {
	srv, err := NewServer(testModel(t, 1), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	led := ledger.New(ledger.Options{})
	srv.SetLedger(led)
	rng := rand.New(rand.NewSource(5))
	rows := make([]Request, 16)
	for i := range rows {
		rows[i] = Request{Preset: 0.1, Features: featureRow(rng), GPU: -1, Cluster: -1}
	}
	srv.DecideBatch(rows, nil)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	snap, err := ledger.ReadSnapshot(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Decisions != 16 {
		t.Fatalf("scraped snapshot has %d decisions, want 16", snap.Decisions)
	}
	if snap.EnergyMaxPJ <= 0 {
		t.Fatalf("scraped snapshot has no energy accounting: %+v", snap)
	}
}

// TestServePromExpositionLintClean runs the promlint satellite in unit
// tests: the serving registry (including ledger series) must expose
// lint-clean Prometheus text.
func TestServePromExpositionLintClean(t *testing.T) {
	srv, err := NewServer(testModel(t, 1), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(64, provenance.MonitorOptions{})
	srv.SetLedger(ledger.New(ledger.Options{Registry: srv.Telemetry()}))
	rng := rand.New(rand.NewSource(11))
	rows := make([]Request, 32)
	for i := range rows {
		rows[i] = Request{Preset: 0.1, Features: featureRow(rng), GPU: -1, Cluster: -1}
	}
	srv.DecideBatch(rows, nil)

	var buf bytes.Buffer
	if err := srv.Telemetry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if errs := telemetry.LintProm(bytes.NewReader(buf.Bytes())); len(errs) != 0 {
		t.Fatalf("serve exposition fails promlint: %v", errs)
	}
	if !bytes.Contains(buf.Bytes(), []byte("ledger_decisions_total")) {
		t.Fatal("serve exposition missing ledger series")
	}
}

// TestLedgerAccountsFallbackDecisions: the ledger accounts every
// answered row, including degraded ones — the objective is what the
// fleet actually did, not only what the model did.
func TestLedgerAccountsFallbackDecisions(t *testing.T) {
	srv, err := NewServer(testModel(t, 1), Options{Workers: 1, Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	led := ledger.New(ledger.Options{})
	srv.SetLedger(led)
	rng := rand.New(rand.NewSource(21))
	rows := make([]Request, 8)
	for i := range rows {
		rows[i] = Request{Preset: 0.1, Features: featureRow(rng), GPU: -1, Cluster: -1}
	}
	decs := srv.DecideBatch(rows, nil)
	if len(decs) != len(rows) {
		t.Fatalf("%d decisions for %d rows", len(decs), len(rows))
	}
	if got := led.Snapshot().Decisions; got != int64(len(rows)) {
		t.Fatalf("ledger accounted %d decisions, want %d", got, len(rows))
	}
}
