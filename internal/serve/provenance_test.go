package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// TestServerProvenanceEndToEnd decides a batch with healthy and hostile
// rows and checks the flight recorder, the drift metrics, and the
// /debug/decisions dump all agree on what happened.
func TestServerProvenanceEndToEnd(t *testing.T) {
	srv, err := NewServer(testModel(t, 70), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(64, provenance.MonitorOptions{})

	rng := rand.New(rand.NewSource(70))
	rows := make([]Request, 6)
	for i := range rows {
		rows[i] = Request{Preset: 0.1, Features: featureRow(rng), GPU: -1, Cluster: -1}
	}
	rows[2].Features[5] = math.NaN() // rejected at the boundary
	decs := srv.decideBatch(rows, nil)
	if len(decs) != len(rows) {
		t.Fatalf("%d decisions, want %d", len(decs), len(rows))
	}
	for i, d := range decs {
		want := provenance.ReasonModel
		if i == 2 {
			want = provenance.ReasonRejected
		}
		if d.Reason != want {
			t.Fatalf("row %d reason = %v, want %v", i, d.Reason, want)
		}
	}

	recs := srv.FlightRecorder().Snapshot(nil)
	if len(recs) != len(rows) {
		t.Fatalf("recorded %d decisions, want %d", len(recs), len(rows))
	}
	nFeat := srv.Model().NumFeatures()
	for i, rec := range recs {
		if rec.Cluster != -1 || rec.Epoch != -1 {
			t.Fatalf("record %d: serving record has cluster/epoch %d/%d", i, rec.Cluster, rec.Epoch)
		}
		if rec.Reason == provenance.ReasonModel {
			if int(rec.NumDerived) != nFeat || int(rec.NumLogits) != srv.Model().Levels {
				t.Fatalf("record %d: derived/logits %d/%d", i, rec.NumDerived, rec.NumLogits)
			}
		} else if rec.NumDerived != 0 || rec.NumLogits != 0 {
			t.Fatalf("record %d: degraded record carries model internals", i)
		}
	}

	snap := srv.Telemetry().Snapshot()
	id := telemetry.MetricID("prov_decisions_total", "reason", "rejected")
	if got := snap.Counters[id]; got != 1 {
		t.Fatalf("%s = %d, want 1", id, got)
	}

	// /debug/decisions: full dump, then filtered by reason and capped.
	h := srv.Handler()
	get := func(url string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		return w
	}
	w := get("/debug/decisions")
	if w.Code != 200 {
		t.Fatalf("/debug/decisions = %d: %s", w.Code, w.Body.String())
	}
	hdr, dumped, err := provenance.ReadRecords(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumped) != len(rows) {
		t.Fatalf("dump has %d records, want %d", len(dumped), len(rows))
	}
	if len(hdr.Features) != nFeat || hdr.Levels != srv.Model().Levels || hdr.Build["go"] == "" {
		t.Fatalf("dump header incomplete: %+v", hdr)
	}

	w = get("/debug/decisions?reason=rejected")
	_, dumped, err = provenance.ReadRecords(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumped) != 1 || dumped[0].Reason != provenance.ReasonRejected {
		t.Fatalf("reason filter returned %d records", len(dumped))
	}

	w = get("/debug/decisions?n=2")
	_, dumped, err = provenance.ReadRecords(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumped) != 2 || dumped[1].Seq != recs[len(recs)-1].Seq {
		t.Fatalf("n=2 did not return the newest two records")
	}

	if w := get("/debug/decisions?reason=bogus"); w.Code != 400 {
		t.Fatalf("bogus reason filter = %d, want 400", w.Code)
	}
	if w := get("/debug/decisions?cluster=-1"); w.Code != 200 {
		t.Fatalf("cluster filter = %d, want 200", w.Code)
	}
}

// TestDebugDecisionsDisabled pins the 404 contract when provenance is
// off, and that /healthz carries build attribution either way.
func TestDebugDecisionsDisabled(t *testing.T) {
	srv, err := NewServer(testModel(t, 71), Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/decisions", nil))
	if w.Code != 404 {
		t.Fatalf("/debug/decisions without provenance = %d, want 404", w.Code)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	var hz struct {
		Build map[string]string `json:"build"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(hz.Build["go"], "go") {
		t.Fatalf("healthz build attribution missing: %v", hz.Build)
	}
}

// TestSwapRefreshesDriftReference hot-swaps a model with shifted training
// statistics and checks the monitor re-anchors to the new reference.
func TestSwapRefreshesDriftReference(t *testing.T) {
	srv, err := NewServer(testModel(t, 72), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(32, provenance.MonitorOptions{Window: 4, DriftZThreshold: -1, MAPEThreshold: -1})

	next := testModel(t, 73)
	for i := range next.DecisionScaler.Mean {
		next.DecisionScaler.Mean[i] = 10
	}
	if err := srv.Swap(next); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(72))
	rows := make([]Request, 4)
	for i := range rows {
		rows[i] = Request{Preset: 0.1, Features: featureRow(rng), GPU: -1, Cluster: -1}
	}
	srv.decideBatch(rows, nil)

	// Features are ~U[0,2]; against the swapped-in mean of 10 (σ=1) every
	// z gauge must sit far below zero — proof the new reference is live.
	snap := srv.Telemetry().Snapshot()
	names, _, _ := next.TrainingStats()
	id := telemetry.MetricID("prov_feature_mean_z", "feature", names[0])
	z, ok := snap.Gauges[id]
	if !ok {
		t.Fatalf("gauge %s missing after swap", id)
	}
	if z > -5 {
		t.Fatalf("z = %g, want far negative against the swapped reference", z)
	}
}

// TestDecideBatchNoAllocsWithProvenance extends the hot-path allocation
// guard: recording provenance must stay allocation-free too.
func TestDecideBatchNoAllocsWithProvenance(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under the race detector")
	}
	srv, err := NewServer(testModel(t, 74), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(256, provenance.MonitorOptions{})
	rng := rand.New(rand.NewSource(74))
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
		t.Fatalf("decideBatch allocates %.1f objects/op with provenance enabled, want 0", allocs)
	}
}

// TestDriftMonitorOnlineAgreesWithReplay: keyed traffic served with the
// drift monitor and prediction feedback armed, including rejected rows
// (a non-finite feature) and fallback rows (an injected inference error
// every 97 rows), leaves a /debug/decisions dump whose replay through
// provenance.Replay — what `dvfsstat -decisions` prints — publishes every
// prov_* gauge and counter equal to the engine's. The window holds the
// whole trace, so neither monitor evicts.
func TestDriftMonitorOnlineAgreesWithReplay(t *testing.T) {
	const window = 1024
	inj, err := faults.Parse("serve.infer:error:every=97", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(testModel(t, 1), Options{Workers: 1, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(window, provenance.MonitorOptions{Window: window})
	srv.EnablePredFeedback()

	rng := rand.New(rand.NewSource(42))
	rows := make([]Request, 64)
	var decs []Decision
	reasons := make(map[provenance.Reason]int)
	for batch := 0; batch < 8; batch++ {
		for i := range rows {
			// Eight GPUs of eight clusters, each identity once a batch, so
			// every identity after the first batch has a previous level and
			// a pending prediction.
			rows[i] = Request{Preset: 0.1, Features: featureRow(rng), GPU: int32(i % 8), Cluster: int32(i / 8)}
			// Rejected rows: a NaN feature, a NaN instruction count that
			// follows a model decision (a prediction it cannot realize) and
			// a NaN preset, which the dump must still carry.
			switch (i + batch) % 13 {
			case 4:
				rows[i].Features[3] = math.NaN()
			case 7:
				rows[i].Features[counters.IdxInstr] = math.NaN()
			case 11:
				rows[i].Preset = math.NaN()
			}
		}
		decs = srv.DecideBatch(rows, decs[:0])
		for _, d := range decs {
			reasons[d.Reason]++
		}
	}
	if reasons[provenance.ReasonModel] == 0 || reasons[provenance.ReasonRejected] == 0 || reasons[provenance.ReasonFallback] == 0 {
		t.Fatalf("trace lacks model, rejected or fallback rows: %v", reasons)
	}

	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/decisions", nil))
	if w.Code != 200 {
		t.Fatalf("/debug/decisions = %d: %s", w.Code, w.Body.String())
	}
	hdr, recs, err := provenance.ReadRecords(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8*len(rows) {
		t.Fatalf("dump holds %d records, want %d", len(recs), 8*len(rows))
	}
	replay := telemetry.NewRegistry()
	provenance.Replay(replay, hdr, recs)

	prov := func(snap telemetry.Snapshot) map[string]float64 {
		out := make(map[string]float64)
		for id, v := range snap.Gauges {
			if strings.HasPrefix(id, "prov_") {
				out[id] = v
			}
		}
		for id, v := range snap.Counters {
			if strings.HasPrefix(id, "prov_") {
				out[id] = float64(v)
			}
		}
		return out
	}
	online, offline := prov(srv.Telemetry().Snapshot()), prov(replay.Snapshot())
	if len(online) != len(offline) {
		t.Fatalf("online publishes %d prov_* series, the replay %d:\n%v\n%v", len(online), len(offline), online, offline)
	}
	for id, v := range online {
		if got, ok := offline[id]; !ok || got != v {
			t.Errorf("%s: online %v, replay %v (present %v)", id, v, got, ok)
		}
	}
	st := srv.QualityMonitor().DriftState()
	if st.ErrSamples == 0 || math.IsNaN(st.MAPE) || st.FlipRate == 0 || st.FeatureSamples == 0 {
		t.Fatalf("trace exercises too little of the monitor: %+v", st)
	}
}
