package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/provenance"
)

func TestKeyedFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := []Request{
		{Preset: 0.1, Features: featureRow(rng), GPU: 0, Cluster: 0},
		{Preset: 0.2, Features: featureRow(rng), GPU: 17, Cluster: 23},
		{Preset: 0.3, Features: featureRow(rng), GPU: 1 << 20, Cluster: 5},
	}
	payload, err := AppendKeyedRequestFrame(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeKeyedRequestFrame(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	for i := range got {
		if got[i].GPU != rows[i].GPU || got[i].Cluster != rows[i].Cluster || got[i].Preset != rows[i].Preset {
			t.Fatalf("row %d = (%d,%d,%g), want (%d,%d,%g)",
				i, got[i].GPU, got[i].Cluster, got[i].Preset, rows[i].GPU, rows[i].Cluster, rows[i].Preset)
		}
		for j := range got[i].Features {
			if got[i].Features[j] != rows[i].Features[j] {
				t.Fatalf("row %d feature %d differs", i, j)
			}
		}
	}

	decs := []Decision{
		{Level: 3, Reason: provenance.ReasonModel, PredInstr: 42.5, Shard: 0},
		{Level: 5, Reason: provenance.ReasonShed, PredInstr: 17, Shard: -1},
		{Level: 1, Reason: provenance.ReasonModel, PredInstr: 9, Shard: 2, Rerouted: true},
	}
	rp, err := AppendKeyedResponseFrame(nil, StatusOK, decs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeKeyedResponseFrame(rp, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i] != decs[i] {
			t.Fatalf("decision %d = %+v, want %+v", i, back[i], decs[i])
		}
	}
}

func TestKeyedRequestRejectsMissingIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng), GPU: -1, Cluster: 3}}
	if _, err := AppendKeyedRequestFrame(nil, rows); err == nil {
		t.Fatal("keyed frame without gpu identity accepted")
	}
}

// TestServeConnSpeaksBothVersions drives one connection through hello
// negotiation, a v2 request, and a v3 keyed request — the same engine
// must answer all three.
func TestServeConnSpeaksBothVersions(t *testing.T) {
	srv, err := NewServer(testModel(t, 31), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Close()

	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	hello, err := cl.Negotiate()
	if err != nil {
		t.Fatal(err)
	}
	if hello.Version != VersionMax {
		t.Fatalf("negotiated version %d, want %d", hello.Version, VersionMax)
	}
	if hello.Router {
		t.Fatal("daemon claims to be a router")
	}

	rng := rand.New(rand.NewSource(31))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng), GPU: 2, Cluster: 7}}

	// v2 on the same connection: identity is dropped on the wire.
	decs, err := cl.Decide(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 1 || decs[0].Shard != -1 {
		t.Fatalf("v2 decision = %+v", decs)
	}

	// v3 keyed on the same connection: a plain daemon answers with no
	// shard identity but accepts the keys.
	decs, err = cl.DecideKeyed(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 1 || decs[0].Shard != -1 || decs[0].Rerouted {
		t.Fatalf("keyed decision = %+v", decs)
	}
	if decs[0].Reason != provenance.ReasonModel {
		t.Fatalf("keyed decision reason = %v", decs[0].Reason)
	}
}

// TestKeyedRowsCarryClusterIntoProvenance sends keyed frames and checks
// the flight recorder attributes decisions to the requesting cluster.
func TestKeyedRowsCarryClusterIntoProvenance(t *testing.T) {
	srv, err := NewServer(testModel(t, 32), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(16, provenance.MonitorOptions{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Close()

	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(32))
	if _, err := cl.DecideKeyed([]Request{{Preset: 0.1, Features: featureRow(rng), GPU: 1, Cluster: 19}}); err != nil {
		t.Fatal(err)
	}
	recs := srv.FlightRecorder().Snapshot(nil)
	if len(recs) != 1 || recs[0].Cluster != 19 {
		t.Fatalf("recorded %d records, cluster %d; want 1 record for cluster 19", len(recs), recs[0].Cluster)
	}
}

// TestBadMagicGetsStructuredError sends garbage with a valid length
// prefix and expects a typed MsgError refusal, not a silent close.
func TestBadMagicGetsStructuredError(t *testing.T) {
	srv, err := NewServer(testModel(t, 33), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := []byte("GET / HTTP/1.1\r\n") // not our protocol
	var pre [4]byte
	binary.BigEndian.PutUint32(pre[:], uint32(len(payload)))
	conn.Write(pre[:])
	conn.Write(payload)

	frame, err := ReadFrame(conn, nil)
	if err != nil {
		t.Fatalf("no structured error frame: %v", err)
	}
	perr := DecodeErrorFrame(frame)
	var pe *ProtoError
	if !errors.As(perr, &pe) || pe.Code != ErrCodeBadMagic {
		t.Fatalf("got %v, want ProtoError code %d", perr, ErrCodeBadMagic)
	}
}

// TestVersionMismatchGetsStructuredError offers a version range the
// server does not speak.
func TestVersionMismatchGetsStructuredError(t *testing.T) {
	srv, err := NewServer(testModel(t, 34), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A hello offering only versions far beyond what we implement.
	hello := AppendHelloFrame(nil, VersionMax+1, VersionMax+9)
	var pre [4]byte
	binary.BigEndian.PutUint32(pre[:], uint32(len(hello)))
	conn.Write(pre[:])
	conn.Write(hello)

	frame, err := ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	var pe *ProtoError
	if perr := DecodeErrorFrame(frame); !errors.As(perr, &pe) || pe.Code != ErrCodeVersion {
		t.Fatalf("got %v, want ProtoError code %d", perr, ErrCodeVersion)
	}
}

// TestDecide503InFallbackOnly forces the health machine into
// fallback-only and expects HTTP /decide to refuse with 503 +
// Retry-After (binary transport keeps serving fallback decisions).
func TestDecide503InFallbackOnly(t *testing.T) {
	inj := faults.New(7)
	if err := inj.Arm(FaultDecide, faults.Spec{Kind: faults.KindError, Every: 1}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(testModel(t, 35), Options{
		Faults: inj,
		Health: HealthOptions{FailThreshold: 2, ProbeEvery: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng), GPU: -1, Cluster: -1}}
	srv.decideBatch(rows, nil)
	srv.decideBatch(rows, nil)
	if got := srv.Health(); got != FallbackOnly {
		t.Fatalf("health = %s, want fallback-only", got)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]any{"features": rows[0].Features, "preset": 0.1})
	resp, err := http.Post(ts.URL+"/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/decide in fallback-only: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	if got := srv.Metrics().Unavailable.Load(); got != 1 {
		t.Fatalf("unavailable counter = %d, want 1", got)
	}

	// The binary path still answers (fallback decisions), so the µs-scale
	// control loop is never starved.
	decs := srv.decideBatch(rows, nil)
	if len(decs) != 1 || decs[0].Reason != provenance.ReasonFallbackOnly {
		t.Fatalf("binary-path decision in fallback-only = %+v", decs)
	}
}
