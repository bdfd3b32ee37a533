package serve

import (
	"context"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/provenance"
)

// dumpChaosArtifact writes the flight recorder's contents to
// $CHAOS_ARTIFACT_DIR so CI can attach the last decisions before a chaos
// failure to the run. A no-op when the variable is unset or provenance
// was not enabled.
func dumpChaosArtifact(t *testing.T, srv *Server) {
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" || srv.FlightRecorder() == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos artifact: %v", err)
		return
	}
	path := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+"-decisions.jsonl")
	if err := provenance.WriteFile(path, srv.provHeader(), srv.FlightRecorder()); err != nil {
		t.Logf("chaos artifact: %v", err)
		return
	}
	t.Logf("chaos artifact: recorder dump at %s", path)
}

// TestChaosServingUnderFaults is the chaos harness: a live TCP server with
// panics, slow inferences (blowing the deadline budget), dropped
// connections, and a mid-run corrupt model reload, under concurrent
// clients that also send invalid feature rows. The contract under all of
// it: the daemon never exits, every client request is answered, and the
// degradation counters show each fault class was actually exercised.
// Designed to run under -race.
func TestChaosServingUnderFaults(t *testing.T) {
	inj := faults.New(42)
	for site, sp := range map[string]faults.Spec{
		FaultInfer:  {Kind: faults.KindPanic, Every: 97},
		FaultDecide: {Kind: faults.KindLatency, Every: 53, Latency: 2 * time.Millisecond},
		FaultConn:   {Kind: faults.KindError, Every: 41},
	} {
		if err := inj.Arm(site, sp); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(testModel(t, 40), Options{
		Workers: 4,
		Budget:  time.Millisecond,
		Faults:  inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(4096, provenance.MonitorOptions{})
	defer func() {
		if t.Failed() {
			dumpChaosArtifact(t, srv)
		}
	}()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeTCP(l) }()

	garbagePath := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(garbagePath, []byte("definitely not a model"), 0o644); err != nil {
		t.Fatal(err)
	}

	const (
		clients = 8
		batches = 60
		rowsPer = 8
	)
	modelBefore := srv.Model()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := DialContext(context.Background(), l.Addr().String(), DialOptions{
				Retries: 8,
				Backoff: time.Millisecond,
			})
			if err != nil {
				t.Errorf("client %d: dial: %v", c, err)
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(c)))
			rows := make([]Request, rowsPer)
			for b := 0; b < batches; b++ {
				for i := range rows {
					rows[i] = Request{Preset: 0.1, Features: featureRow(rng)}
				}
				if b%10 == 5 {
					rows[b%rowsPer].Features[3] = math.NaN() // hostile input rides along
				}
				decs, err := cl.DecideKeyed(rows)
				if err != nil {
					t.Errorf("client %d batch %d: %v", c, b, err)
					return
				}
				if len(decs) != rowsPer {
					t.Errorf("client %d batch %d: %d decisions, want %d", c, b, len(decs), rowsPer)
					return
				}
				// A corrupt model reload mid-run must fail without
				// interrupting service.
				if c == 0 && b == batches/2 {
					if err := srv.Reload(garbagePath); err == nil {
						t.Error("corrupt reload succeeded")
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if srv.Model() != modelBefore {
		t.Fatal("corrupt reload replaced the served model")
	}

	// Every row of every batch was answered despite the chaos. The server
	// counts a batch after flushing its response and observes it after
	// that, so the last client can be back here before the last batch is
	// counted or recorded: wait for the counter and the recorder.
	wantDecisions := int64(clients * batches * rowsPer)
	for deadline := time.Now().Add(2 * time.Second); (srv.Metrics().Decisions.Load() < wantDecisions ||
		srv.FlightRecorder().Head() < uint64(wantDecisions)) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	met := srv.Metrics()
	if got := met.Decisions.Load(); got != wantDecisions {
		t.Fatalf("decisions = %d, want %d", got, wantDecisions)
	}
	if got := levelTotal(srv.Telemetry().Snapshot(), srv.Model().Levels); got != wantDecisions {
		t.Fatalf("level counts sum to %d, want %d", got, wantDecisions)
	}
	// The only server-side error is the failed reload — dropped
	// connections and recovered faults are not client-visible failures.
	if got := met.Errors.Load(); got != 1 {
		t.Fatalf("errors = %d, want exactly 1 (the corrupt reload)", got)
	}
	// Each fault class actually fired and was absorbed.
	if met.RecoveredPanics.Load() == 0 {
		t.Fatal("no panics recovered — panic site never exercised")
	}
	if met.DeadlineMisses.Load() == 0 {
		t.Fatal("no deadline misses — latency site never blew the budget")
	}
	if met.RejectedRows.Load() == 0 {
		t.Fatal("no rejected rows — invalid inputs never hit the validator")
	}
	if met.Fallbacks.Load() == 0 {
		t.Fatal("no fallback decisions — degradation path never taken")
	}
	if inj.Fired(FaultConn) == 0 {
		t.Fatal("no connections dropped — reconnect path never exercised")
	}

	// The flight recorder saw every decision and kept the reasons: a
	// post-mortem can tell which rows the model answered, which were
	// rejected at the boundary, and which degraded under faults.
	recs := srv.FlightRecorder().Snapshot(nil)
	if int64(len(recs)) != wantDecisions {
		t.Fatalf("flight recorder holds %d records, want %d", len(recs), wantDecisions)
	}
	var byReason [provenance.NumReasons]int
	for _, rec := range recs {
		byReason[rec.Reason]++
	}
	if byReason[provenance.ReasonModel] == 0 {
		t.Fatal("no model-answered decisions recorded")
	}
	if byReason[provenance.ReasonRejected] == 0 {
		t.Fatal("no rejected rows recorded despite hostile inputs")
	}
	degraded := byReason[provenance.ReasonPanic] + byReason[provenance.ReasonDeadline] +
		byReason[provenance.ReasonFallback] + byReason[provenance.ReasonFallbackOnly]
	if degraded == 0 {
		t.Fatal("no degraded decisions recorded despite injected faults")
	}

	// The daemon is still alive and serving after the storm.
	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatalf("post-chaos dial: %v", err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(99))
	if _, err := cl.DecideKeyed([]Request{{Preset: 0.1, Features: featureRow(rng)}}); err != nil {
		t.Fatalf("post-chaos request: %v", err)
	}

	srv.Close()
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
}

// TestClientReconnectOnDrop drops the connection server-side on a fixed
// cadence; a retrying client must answer every request and report the
// reconnects.
func TestClientReconnectOnDrop(t *testing.T) {
	inj := faults.New(7)
	if err := inj.Arm(FaultConn, faults.Spec{Kind: faults.KindError, Every: 3}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(testModel(t, 41), Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Close()

	cl, err := DialContext(context.Background(), l.Addr().String(), DialOptions{
		Retries: 5,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(41))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng)}}
	for b := 0; b < 12; b++ {
		if _, err := cl.DecideKeyed(rows); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	if cl.Reconnects() == 0 {
		t.Fatal("no reconnects despite injected connection drops")
	}
}

// TestClientDialRetry arms client-side dial faults: with retries the
// connection eventually establishes; without them it fails fast.
func TestClientDialRetry(t *testing.T) {
	srv, err := NewServer(testModel(t, 42), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Close()

	failTwice := func() *faults.Injector {
		inj := faults.New(9)
		if err := inj.Arm(FaultClientDial, faults.Spec{Kind: faults.KindError, Every: 1, Limit: 2}); err != nil {
			t.Fatal(err)
		}
		return inj
	}

	if _, err := DialContext(context.Background(), l.Addr().String(), DialOptions{
		Faults: failTwice(),
	}); err == nil {
		t.Fatal("dial with no retries survived an injected failure")
	}

	cl, err := DialContext(context.Background(), l.Addr().String(), DialOptions{
		Retries: 3,
		Backoff: time.Millisecond,
		Faults:  failTwice(),
	})
	if err != nil {
		t.Fatalf("dial with retries: %v", err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(42))
	if _, err := cl.DecideKeyed([]Request{{Preset: 0.1, Features: featureRow(rng)}}); err != nil {
		t.Fatal(err)
	}
}

// TestClientDialContextCancel pins that a cancelled context aborts the
// retry loop instead of sleeping out the full backoff schedule.
func TestClientDialContextCancel(t *testing.T) {
	inj := faults.New(11)
	if err := inj.Arm(FaultClientDial, faults.Spec{Kind: faults.KindError}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := DialContext(ctx, "127.0.0.1:1", DialOptions{
		Retries: 10,
		Backoff: time.Hour,
		Faults:  inj,
	})
	if err == nil {
		t.Fatal("dial succeeded with a cancelled context")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled dial took %s, want immediate return", elapsed)
	}
}

// TestBackoffDelayDeterministic pins the jittered schedule: reproducible
// for one address, growing with attempts, within the ±25% envelope.
func TestBackoffDelayDeterministic(t *testing.T) {
	base := 10 * time.Millisecond
	for attempt := 0; attempt < 6; attempt++ {
		d1 := backoffDelay(base, attempt, "host:1")
		d2 := backoffDelay(base, attempt, "host:1")
		if d1 != d2 {
			t.Fatalf("attempt %d: non-deterministic delay %s vs %s", attempt, d1, d2)
		}
		raw := base << uint(attempt)
		lo := time.Duration(float64(raw) * 0.75)
		hi := time.Duration(float64(raw) * 1.25)
		if d1 < lo || d1 > hi {
			t.Fatalf("attempt %d: delay %s outside [%s, %s]", attempt, d1, lo, hi)
		}
	}
	if d := backoffDelay(base, 60, "host:1"); d > time.Duration(float64(5*time.Second)*1.25) {
		t.Fatalf("uncapped backoff: %s", d)
	}
	if backoffDelay(base, 2, "host:1") == backoffDelay(base, 2, "host:2") {
		t.Fatal("different addresses share a jitter schedule")
	}
}
