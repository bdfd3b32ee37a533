package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"

	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
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

// listenServer starts srv on a loopback listener and returns its address.
func listenServer(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	t.Cleanup(srv.Close)
	return l.Addr().String()
}

// expectRefusal writes raw bytes to the binary port at addr and expects a
// MsgError frame with the given code back, then EOF: the structured
// refusal, not a hung read and not a silent close.
func expectRefusal(t *testing.T, addr string, raw []byte, code int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	frame, err := ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("no structured error frame: %v", err)
	}
	if msgType, err := parseHeader(frame); err != nil || msgType != MsgError {
		t.Fatalf("reply is type %d (%v), want MsgError", msgType, err)
	}
	var pe *ProtoError
	if perr := DecodeErrorFrame(frame); !errors.As(perr, &pe) || pe.Code != code {
		t.Fatalf("got %v, want ProtoError code %d", perr, code)
	}
	if _, err := ReadFrame(br, nil); err != io.EOF {
		t.Fatalf("after the refusal: %v, want EOF", err)
	}
}

// framed prefixes payload with its length.
func framed(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestRowsWithoutIdentityRoundTrip: gpu = cluster = -1 is how the one
// frame spells "no identity". It survives the codec, and a daemon answers
// it from the model with no shard (what a router does with it is
// fleet.TestRouterRoutesByKey's tail).
func TestRowsWithoutIdentityRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := []Request{
		{Preset: 0.1, Features: featureRow(rng), GPU: -1, Cluster: -1},
		{Preset: 0.2, Features: featureRow(rng), GPU: 4, Cluster: 3},
	}
	payload, err := AppendKeyedRequestFrame(nil, rows)
	if err != nil {
		t.Fatalf("row without identity refused by the encoder: %v", err)
	}
	got, err := DecodeKeyedRequestFrame(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].GPU != -1 || got[0].Cluster != -1 || got[1].GPU != 4 || got[1].Cluster != 3 {
		t.Fatalf("identities after the round trip: (%d,%d) (%d,%d)", got[0].GPU, got[0].Cluster, got[1].GPU, got[1].Cluster)
	}

	srv, err := NewServer(testModel(t, 30), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(16, provenance.MonitorOptions{})
	cl, err := Dial(listenServer(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	decs, err := cl.DecideKeyed(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decs {
		if d.Shard != -1 || d.Rerouted || d.Reason != provenance.ReasonModel {
			t.Fatalf("decision %d = %+v, want a model answer with no shard", i, d)
		}
	}
	srv.Close() // the planes see a frame after its reply; Close waits for them
	if recs := srv.FlightRecorder().Snapshot(nil); len(recs) != 2 || recs[0].Cluster != -1 || recs[1].Cluster != 3 {
		t.Fatalf("flight recorder saw %+v, want clusters -1 and 3", recs)
	}
}

// TestServeConnNegotiatesThenServes drives one connection through hello
// negotiation, a keyed request, and a traced request — the same engine
// must answer all three, each in the request's own kind.
func TestServeConnNegotiatesThenServes(t *testing.T) {
	srv, err := NewServer(testModel(t, 31), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(listenServer(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	hello, err := cl.Negotiate()
	if err != nil {
		t.Fatal(err)
	}
	if hello.Version != Version || !hello.Tracing {
		t.Fatalf("negotiated %+v, want version %d with tracing", hello, Version)
	}
	if hello.Router {
		t.Fatal("daemon claims to be a router")
	}

	rng := rand.New(rand.NewSource(31))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng), GPU: 2, Cluster: 7}}

	// Keyed: a plain daemon answers with no shard identity but accepts
	// the keys.
	decs, err := cl.DecideKeyed(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 1 || decs[0].Shard != -1 || decs[0].Rerouted || decs[0].Reason != provenance.ReasonModel {
		t.Fatalf("keyed decision = %+v", decs)
	}
	keyed := decs[0]

	// Traced on the same connection: the same decision, plus the
	// inference hop's attribution.
	decs, _, err = cl.DecideKeyedTraced(rows, telemetry.TraceContext{TraceID: 77, SpanID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 1 || decs[0] != keyed {
		t.Fatalf("traced decision = %+v, keyed was %+v", decs, keyed)
	}
}

// TestV2FrameRefused: protocols v2, v3 and v4 are gone. A well-formed v2
// request (version byte 2, message type 1), v3 request (today's frame
// less its column mask) and v4 request (today's frame under version 4)
// are each refused with a typed version error, and so is a hello that
// offers nothing newer. The hello-ack has one length: v4's, which carried
// a backend byte, does not decode.
func TestV2FrameRefused(t *testing.T) {
	srv, err := NewServer(testModel(t, 36), Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr := listenServer(t, srv)

	rng := rand.New(rand.NewSource(36))
	cur, err := AppendKeyedRequestFrame(nil, []Request{{Preset: 0.1, Features: featureRow(rng)}})
	if err != nil {
		t.Fatal(err)
	}
	// The v4 request: today's frame under version byte 4.
	v4 := append([]byte(nil), cur...)
	v4[4] = 4
	// The v3 request: version 3, and count and dimension run straight into
	// the rows.
	v3 := append([]byte(nil), cur[:headerLen+4]...)
	v3[4] = 3
	v3 = append(v3, cur[headerLen+rowsHeadLen:]...)
	// The v2 request: version 2 and type 1, then count, dimension, and one
	// row of preset + features with no identity.
	v2 := append([]byte(nil), v3[:headerLen+4]...)
	v2[4], v2[5] = 2, 1
	v2 = append(v2, v3[headerLen+4+reqRowFixed:]...)
	expectRefusal(t, addr, framed(v2), ErrCodeVersion)
	expectRefusal(t, addr, framed(v3), ErrCodeVersion)
	expectRefusal(t, addr, framed(v4), ErrCodeVersion)
	expectRefusal(t, addr, framed(AppendHelloFrame(nil, 2, 2)), ErrCodeVersion)
	expectRefusal(t, addr, framed(AppendHelloFrame(nil, 2, 4)), ErrCodeVersion)
	if got := srv.Metrics().Errors.Load(); got != 5 {
		t.Fatalf("serve errors = %d, want 5", got)
	}

	ack := AppendHelloAckFrame(nil, Hello{Version: Version, Generation: 3})
	if got, err := DecodeHelloAckFrame(ack); err != nil || got.Generation != 3 {
		t.Fatalf("hello-ack round trip = %+v, %v", got, err)
	}
	for _, n := range []int{headerLen + 4, headerLen + 5, len(ack) - 1} {
		if _, err := DecodeHelloAckFrame(ack[:n]); err == nil {
			t.Fatalf("%d-byte hello-ack accepted", n)
		}
	}
	v4Ack := append(append([]byte(nil), ack[:10]...), 1) // v4's backend byte
	if _, err := DecodeHelloAckFrame(append(v4Ack, ack[10:]...)); err == nil {
		t.Fatal("v4 hello-ack with a backend byte accepted")
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
	srv.Close() // the planes see a frame after its reply; Close waits for them
	recs := srv.FlightRecorder().Snapshot(nil)
	if len(recs) != 1 || recs[0].Cluster != 19 {
		t.Fatalf("recorded %d records, cluster %d; want 1 record for cluster 19", len(recs), recs[0].Cluster)
	}
}

// TestBadMagicGetsStructuredError sends garbage with a valid length
// prefix, and a length prefix past MaxFrame, and expects a typed MsgError
// refusal for each, not a silent close.
func TestBadMagicGetsStructuredError(t *testing.T) {
	srv, err := NewServer(testModel(t, 33), Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr := listenServer(t, srv)
	expectRefusal(t, addr, framed([]byte("GET / HTTP/1.1\r\n")), ErrCodeBadMagic) // not our protocol
	oversized := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	expectRefusal(t, addr, append(oversized, "a body that is never read"...), ErrCodeBadFrame)
	if got := srv.Metrics().Errors.Load(); got != 2 {
		t.Fatalf("serve errors = %d, want 2", got)
	}
}

// TestVersionMismatchGetsStructuredError offers a version range the
// server does not speak.
func TestVersionMismatchGetsStructuredError(t *testing.T) {
	srv, err := NewServer(testModel(t, 34), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A hello offering only versions far beyond what we implement.
	expectRefusal(t, listenServer(t, srv), framed(AppendHelloFrame(nil, Version+1, Version+9)), ErrCodeVersion)
}

// TestClientRefusesMiscountedResponse: a peer's response must answer the
// rows that were sent. A short count, a count past MaxBatch, and an
// oversized length prefix are all the stream gone bad — ordinary
// retryable transport errors, not the peer's structured refusal.
func TestClientRefusesMiscountedResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	rows := []Request{
		{Preset: 0.1, Features: featureRow(rng)},
		{Preset: 0.1, Features: featureRow(rng)},
		{Preset: 0.1, Features: featureRow(rng)},
	}
	two, err := AppendKeyedResponseFrame(nil, StatusOK, make([]Decision, 2))
	if err != nil {
		t.Fatal(err)
	}
	// MaxBatch+1 rows: the encoder refuses to build it, so grow a full
	// frame by one row by hand.
	tooMany, err := AppendKeyedResponseFrame(nil, StatusOK, make([]Decision, MaxBatch))
	if err != nil {
		t.Fatal(err)
	}
	tooMany = append(tooMany, make([]byte, respRow)...)
	binary.BigEndian.PutUint16(tooMany[headerLen+1+8:], MaxBatch+1)

	for name, reply := range map[string][]byte{
		"2 decisions for 3 rows": framed(two),
		"1025-row response":      framed(tooMany),
		"oversized prefix":       binary.BigEndian.AppendUint32(nil, MaxFrame+1),
	} {
		client, server := net.Pipe()
		go func() { // the fake server: read the request, send the canned reply
			defer server.Close()
			if _, err := ReadFrame(server, nil); err == nil {
				server.Write(reply)
			}
		}()
		decs, err := NewClient(client).DecideKeyed(rows)
		client.Close()
		var pe *ProtoError
		if err == nil || errors.As(err, &pe) {
			t.Errorf("%s: decs = %d, err = %v; want a non-ProtoError error", name, len(decs), err)
		}
	}
	if _, _, _, err := decodeResponse(tooMany, nil, MsgDecisionsKeyed); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("decodeResponse(1025 rows) = %v, want the MaxBatch refusal", err)
	}
}
