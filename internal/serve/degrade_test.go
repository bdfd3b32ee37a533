package serve

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ssmdvfs/internal/baselines"
	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/provenance"
)

// TestDegradeInvalidRowsBinary feeds NaN/Inf/out-of-range rows through the
// binary protocol: every row must still get a decision, with the invalid
// ones answered by the analytical fallback and counted.
func TestDegradeInvalidRowsBinary(t *testing.T) {
	srv, err := NewServer(testModel(t, 20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	go srv.ServeConn(server)
	defer client.Close()

	rng := rand.New(rand.NewSource(20))
	rows := make([]Request, 8)
	for i := range rows {
		rows[i] = Request{Preset: 0.1, Features: featureRow(rng)}
	}
	rows[1].Features[3] = math.NaN()
	rows[3].Features[0] = math.Inf(1)
	rows[5].Features[10] = -2e15 // beyond ±maxFeature
	rows[6].Preset = math.NaN()
	rows[7].Features[2] = 1e20 // finite, but beyond maxFeature

	decs, err := NewClient(client).DecideKeyed(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != len(rows) {
		t.Fatalf("got %d decisions for %d rows", len(decs), len(rows))
	}
	m := srv.Model()
	for i, d := range decs {
		if d.Level < 0 || d.Level >= m.Levels {
			t.Fatalf("row %d: level %d out of range", i, d.Level)
		}
	}
	if got := srv.Metrics().RejectedRows.Load(); got != 5 {
		t.Fatalf("rejected rows = %d, want 5", got)
	}
	if got := srv.Metrics().Fallbacks.Load(); got != 5 {
		t.Fatalf("fallback decisions = %d, want 5", got)
	}
	// The fallback must agree with the analytical baseline directly.
	wantLevel, _ := baselines.FallbackDecision(srv.table, rows[1].Features, rows[1].Preset)
	if decs[1].Level != wantLevel {
		t.Fatalf("fallback level = %d, want %d", decs[1].Level, wantLevel)
	}
	// A clean validation pass is not a model failure: health stays intact.
	if got := srv.health.State(); got != Healthy {
		t.Fatalf("health = %s after rejected rows, want healthy", got)
	}
}

// TestDegradePanicRecovery arms a panic fault inside the model loop: the
// batch must still be fully answered and the panic counted.
func TestDegradePanicRecovery(t *testing.T) {
	inj := faults.New(1)
	if err := inj.Arm(FaultInfer, faults.Spec{Kind: faults.KindPanic, Every: 3}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(testModel(t, 22), Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	rows := make([]Request, 8)
	for i := range rows {
		rows[i] = Request{Preset: 0.1, Features: featureRow(rng)}
	}
	decs := srv.decideBatch(rows, nil)
	if len(decs) != len(rows) {
		t.Fatalf("got %d decisions for %d rows", len(decs), len(rows))
	}
	if got := srv.Metrics().RecoveredPanics.Load(); got == 0 {
		t.Fatal("no recovered panics counted")
	}
	if got := srv.Metrics().Fallbacks.Load(); got == 0 {
		t.Fatal("rows after the panic were not degraded to the fallback")
	}
	if got := srv.health.State(); got == Healthy {
		t.Fatal("health still healthy after a model panic")
	}
}

// TestDegradeDeadlineBudget sets an unmeetable budget: the batch degrades
// to the fallback and the miss is counted.
func TestDegradeDeadlineBudget(t *testing.T) {
	srv, err := NewServer(testModel(t, 23), Options{Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	rows := make([]Request, 4)
	for i := range rows {
		rows[i] = Request{Preset: 0.1, Features: featureRow(rng)}
	}
	decs := srv.decideBatch(rows, nil)
	if len(decs) != len(rows) {
		t.Fatalf("got %d decisions for %d rows", len(decs), len(rows))
	}
	if got := srv.Metrics().DeadlineMisses.Load(); got == 0 {
		t.Fatal("no deadline misses counted")
	}
	if got := srv.Metrics().Fallbacks.Load(); got == 0 {
		t.Fatal("no fallback decisions counted")
	}
}

// TestHealthStateMachine drives the server through the full healthy →
// degraded → fallback-only → healthy cycle with a fire-limited fault, on
// the fixed thresholds: 5 failures demote, a probe runs every 16th batch,
// and 3 clean probes restore.
func TestHealthStateMachine(t *testing.T) {
	inj := faults.New(2)
	// Exactly failThreshold failures, then clean forever.
	if err := inj.Arm(FaultDecide, faults.Spec{Kind: faults.KindError, Every: 1, Limit: failThreshold}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(testModel(t, 24), Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng)}}
	batch := func() {
		t.Helper()
		if decs := srv.decideBatch(rows, nil); len(decs) != 1 {
			t.Fatalf("batch not fully answered: %d decisions", len(decs))
		}
	}

	batch()
	if got := srv.health.State(); got != Degraded {
		t.Fatalf("after 1 failure: %s, want degraded", got)
	}
	for i := 1; i < failThreshold; i++ {
		batch()
	}
	if got := srv.health.State(); got != FallbackOnly {
		t.Fatalf("after %d failures: %s, want fallback-only", failThreshold, got)
	}

	// Fallback-only must report 503 while still serving decisions.
	rec := httptest.NewRecorder()
	srv.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz in fallback-only: %d, want 503", rec.Code)
	}
	var hz struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.State != "fallback-only" {
		t.Fatalf("/healthz state = %q", hz.State)
	}
	// The binary path still answers (fallback decisions, marked as such), so
	// the µs-scale control loop is never starved.
	if decs := srv.decideBatch(rows, nil); len(decs) != 1 || decs[0].Reason != provenance.ReasonFallbackOnly {
		t.Fatalf("decision in fallback-only = %+v", decs)
	}

	// The fault is exhausted; probe batches (every probeEvery-th) must
	// restore health after restoreProbes clean probes.
	for i := 0; i < restoreProbes*probeEvery && srv.health.State() != Healthy; i++ {
		batch()
	}
	if got := srv.health.State(); got != Healthy {
		t.Fatalf("server did not recover: %s", got)
	}
	rec = httptest.NewRecorder()
	srv.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz after recovery: %d, want 200", rec.Code)
	}
}

// TestReloadKeepsOldModelOnCorruptFile covers the three corrupt-artifact
// paths: garbage bytes, a truncated valid artifact, and a fault-injected
// post-load corruption that only swap-time validation can catch. In every
// case the old model keeps serving and Reload returns a *ReloadError.
func TestReloadKeepsOldModelOnCorruptFile(t *testing.T) {
	dir := t.TempDir()
	goodPath := filepath.Join(dir, "good.json")
	if err := testModel(t, 25).SaveFile(goodPath); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	garbagePath := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbagePath, []byte("{not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	truncPath := filepath.Join(dir, "truncated.json")
	if err := os.WriteFile(truncPath, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(testModel(t, 26), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Model()

	for _, path := range []string{garbagePath, truncPath} {
		err := srv.Reload(path)
		var re *ReloadError
		if !errors.As(err, &re) {
			t.Fatalf("reload of %s: error %v, want *ReloadError", path, err)
		}
		if re.Stage != "load" {
			t.Fatalf("reload of %s failed at %q, want \"load\"", path, re.Stage)
		}
		if srv.Model() != before {
			t.Fatalf("reload of %s replaced the served model", path)
		}
	}

	// A valid file corrupted after loading (simulated bit-flip): the
	// swap-time validation must reject it.
	inj := faults.New(3)
	if err := inj.Arm(FaultReload, faults.Spec{Kind: faults.KindCorrupt, Every: 1}); err != nil {
		t.Fatal(err)
	}
	srv.faults = inj
	err = srv.Reload(goodPath)
	var re *ReloadError
	if !errors.As(err, &re) {
		t.Fatalf("corrupt reload: error %v, want *ReloadError", err)
	}
	if re.Stage != "swap" {
		t.Fatalf("corrupt reload failed at %q, want \"swap\"", re.Stage)
	}
	if srv.Model() != before {
		t.Fatal("corrupt reload replaced the served model")
	}
	if got := srv.Metrics().Reloads.Load(); got != 0 {
		t.Fatalf("failed reloads counted as successes: %d", got)
	}

	// With the fault disarmed the same file swaps in cleanly.
	srv.faults = nil
	if err := srv.Reload(goodPath); err != nil {
		t.Fatal(err)
	}
	if srv.Model() == before {
		t.Fatal("successful reload did not replace the model")
	}
}

// TestDecideBatchNoAllocsNilInjector guards the zero-cost contract: with
// no injector armed and clean traffic, the batch path must not allocate.
func TestDecideBatchNoAllocsNilInjector(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under the race detector")
	}
	srv, err := NewServer(testModel(t, 28), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(28))
	rows := make([]Request, 8)
	for i := range rows {
		rows[i] = Request{Preset: 0.1, Features: featureRow(rng)}
	}
	decs := make([]Decision, 0, len(rows))
	decs = srv.decideBatch(rows, decs[:0]) // warm the inference pool

	allocs := testing.AllocsPerRun(200, func() {
		decs = srv.decideBatch(rows, decs[:0])
	})
	if allocs != 0 {
		t.Fatalf("decideBatch allocates %.1f objects/op with nil injector, want 0", allocs)
	}
}
