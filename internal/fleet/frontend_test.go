package fleet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"testing"
	"time"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/serve"
	"ssmdvfs/internal/telemetry"
)

// framed prefixes payload with its length.
func framed(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// v2Header is a well-formed frame header of the deleted protocol v2: the
// magic, version byte 2, message type 1 (its unkeyed request).
func v2Header() []byte {
	hdr := serve.AppendHelloFrame(nil, 2, 2)[:6]
	hdr[4], hdr[5] = 2, 1
	return hdr
}

// expectRefusal writes raw bytes to the router's binary port and expects a
// structured error frame with the given code back, then EOF.
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
	frame, err := serve.ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("no structured error frame: %v", err)
	}
	var pe *serve.ProtoError
	if _, err := serve.DecodeHelloAckFrame(frame); !errors.As(err, &pe) || pe.Code != code {
		t.Fatalf("got %v, want ProtoError code %d", err, code)
	}
	if _, err := serve.ReadFrame(br, nil); err != io.EOF {
		t.Fatalf("after the refusal: %v, want EOF", err)
	}
}

func listenRouter(t *testing.T, rt *Router) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.ServeTCP(l)
	return l.Addr().String()
}

// v3Header is a keyed request's header under the deleted protocol v3.
func v3Header() []byte {
	hdr := v2Header()
	hdr[4], hdr[5] = 3, 3
	return hdr
}

// TestV2FrameRefused: the router refuses protocols v2, v3 and v4 exactly
// like the daemon (serve.TestV2FrameRefused) — a typed version error,
// then EOF.
func TestV2FrameRefused(t *testing.T) {
	rt, _ := startFleet(t, 1, Options{})
	addr := listenRouter(t, rt)
	v4, err := serve.AppendKeyedRequestFrame(nil, []serve.Request{{Preset: 0.1, Features: make([]float64, counters.Num)}})
	if err != nil {
		t.Fatal(err)
	}
	v4[4] = 4
	expectRefusal(t, addr, framed(append(v2Header(), make([]byte, 4+48*8)...)), serve.ErrCodeVersion)
	expectRefusal(t, addr, framed(append(v3Header(), make([]byte, 4+50*8)...)), serve.ErrCodeVersion)
	expectRefusal(t, addr, framed(v4), serve.ErrCodeVersion)
	expectRefusal(t, addr, framed(serve.AppendHelloFrame(nil, 2, 2)), serve.ErrCodeVersion)
	expectRefusal(t, addr, framed(serve.AppendHelloFrame(nil, 2, 4)), serve.ErrCodeVersion)
}

// project re-packs a full-width keyed request frame under a narrower
// column mask, the way a client that has learned it would have sent it.
func project(full []byte, mask uint64) []byte {
	const head, rowsHead, fixed = 6, 12, 16 // header; count, dim, mask; gpu, cluster, preset
	out := append([]byte(nil), full[:head+rowsHead]...)
	binary.BigEndian.PutUint16(out[head+2:], uint16(bits.OnesCount64(mask)))
	binary.BigEndian.PutUint64(out[head+4:], mask)
	for row := full[head+rowsHead:]; len(row) > 0; row = row[fixed+8*counters.Num:] {
		out = append(out, row[:fixed]...)
		for m := mask; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			out = append(out, row[fixed+8*j:fixed+8*j+8]...)
		}
	}
	return out
}

// TestRouterBadStreamGetsStructuredError: bad magic and a length prefix
// past MaxFrame get a typed refusal from the router, not a silent close.
func TestRouterBadStreamGetsStructuredError(t *testing.T) {
	rt, _ := startFleet(t, 1, Options{})
	addr := listenRouter(t, rt)
	expectRefusal(t, addr, framed([]byte("GET / HTTP/1.1\r\n")), serve.ErrCodeBadMagic)
	oversized := binary.BigEndian.AppendUint32(nil, serve.MaxFrame+1)
	expectRefusal(t, addr, append(oversized, "a body that is never read"...), serve.ErrCodeBadFrame)
}

// TestEndpointsAnswerAlike puts the same frames through
// serve.FrameScratch.Answer with a daemon and with a router over that
// one daemon as the Endpoint: the same decisions in a reply of the
// request's own kind, the same ack but for the role, and the same error
// code for every frame that breaks the protocol.
func TestEndpointsAnswerAlike(t *testing.T) {
	addr, srv := startReplica(t, fleetModelSeed, serve.Options{})
	rt, err := NewRouter(Options{Replicas: []string{addr}, QueueDeadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	rng := rand.New(rand.NewSource(7))
	rows := make([]serve.Request, 24)
	for i := range rows {
		rows[i] = serve.Request{Preset: 0.1, Features: featureRow(rng), GPU: 5, Cluster: int32(i)}
	}
	rows[3].GPU, rows[3].Cluster = -1, -1 // identity is optional
	keyed, err := serve.AppendKeyedRequestFrame(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	tc := telemetry.TraceContext{TraceID: 0xfeed, SpanID: 9}
	traced, err := serve.AppendTracedRequestFrame(nil, rows, tc)
	if err != nil {
		t.Fatal(err)
	}

	var fsSrv, fsRt serve.FrameScratch
	answer := func(frame []byte) (fromSrv, fromRt []byte, errSrv, errRt error) {
		var n int
		var gotTC telemetry.TraceContext
		fromSrv, n, gotTC, errSrv = fsSrv.Answer(frame, srv, time.Now())
		if errSrv == nil && (n != 0 || gotTC != telemetry.TraceContext{}) && n != len(rows) {
			t.Fatalf("daemon served %d rows of %d", n, len(rows))
		}
		fromRt, _, _, errRt = fsRt.Answer(frame, rt, time.Now())
		return append([]byte(nil), fromSrv...), append([]byte(nil), fromRt...), errSrv, errRt
	}

	// Hello: one ack shape, differing only in who answers.
	a, b, errA, errB := answer(serve.AppendHelloFrame(nil, serve.Version, serve.Version))
	if errA != nil || errB != nil {
		t.Fatalf("hello refused: %v / %v", errA, errB)
	}
	helloSrv, errA := serve.DecodeHelloAckFrame(a)
	helloRt, errB := serve.DecodeHelloAckFrame(b)
	if errA != nil || errB != nil {
		t.Fatalf("acks do not decode: %v / %v", errA, errB)
	}
	if helloSrv.Version != serve.Version || !helloSrv.Tracing || helloSrv.Router || helloSrv.Shards != 0 {
		t.Fatalf("daemon ack = %+v", helloSrv)
	}
	if helloRt.Version != serve.Version || !helloRt.Tracing || !helloRt.Router || helloRt.Shards != 1 {
		t.Fatalf("router ack = %+v", helloRt)
	}

	// Requests: answered in their own kind, with the same decisions.
	same := func(kind string, x, y []serve.Decision) {
		t.Helper()
		if len(x) != len(rows) || len(y) != len(rows) {
			t.Fatalf("%s: %d and %d decisions for %d rows", kind, len(x), len(y), len(rows))
		}
		for i := range x {
			if x[i].Level != y[i].Level || x[i].Reason != y[i].Reason || x[i].PredInstr != y[i].PredInstr {
				t.Fatalf("%s row %d: daemon %+v, router %+v", kind, i, x[i], y[i])
			}
			if x[i].Shard != -1 || y[i].Shard != 0 {
				t.Fatalf("%s row %d: shards %d and %d, want -1 and 0", kind, i, x[i].Shard, y[i].Shard)
			}
		}
	}
	a, b, errA, errB = answer(keyed)
	if errA != nil || errB != nil {
		t.Fatalf("keyed frame refused: %v / %v", errA, errB)
	}
	decsSrv, errA := serve.DecodeKeyedResponseFrame(a, nil)
	decsRt, errB := serve.DecodeKeyedResponseFrame(b, nil)
	if errA != nil || errB != nil {
		t.Fatalf("keyed request not answered in kind: %v / %v", errA, errB)
	}
	same("keyed", decsSrv, decsRt)

	a, b, errA, errB = answer(traced)
	if errA != nil || errB != nil {
		t.Fatalf("traced frame refused: %v / %v", errA, errB)
	}
	tracedSrv, _, errA := serve.DecodeTracedResponseFrame(a, nil)
	tracedRt, _, errB := serve.DecodeTracedResponseFrame(b, nil)
	if errA != nil || errB != nil {
		t.Fatalf("traced request not answered in kind: %v / %v", errA, errB)
	}
	same("traced", tracedSrv, tracedRt)
	same("traced vs keyed", decsSrv, tracedRt)
	if id := binary.BigEndian.Uint64(b[7:]); id != tc.TraceID {
		t.Fatalf("router echoed trace ID %x, want %x", id, tc.TraceID)
	}

	// Columns: each response names what its endpoint reads — the daemon the
	// model's five and the fallback's, the router everything — and a frame
	// that carries exactly the daemon's eight is answered by the daemon as
	// the full frame was and sent back by the router, which would have to
	// shed from columns it never got: StatusColumns naming every column, in
	// the request's kind, no rows, and not an error.
	const head = 7 // header + status: where a keyed response's mask sits, 24 further in a traced one
	eight := srv.Columns()
	if got := binary.BigEndian.Uint64(a[head+24:]); bits.OnesCount64(eight) != 8 || got != eight {
		t.Fatalf("daemon reads %#x (%d columns), its traced response names %#x", eight, bits.OnesCount64(eight), got)
	}
	if got := binary.BigEndian.Uint64(b[head+24:]); got != serve.AllColumns {
		t.Fatalf("router's traced response names %#x, want every column", got)
	}
	a, b, errA, errB = answer(project(keyed, eight))
	if errA != nil || errB != nil {
		t.Fatalf("projected frame refused as malformed: %v / %v", errA, errB)
	}
	if decsProj, err := serve.DecodeKeyedResponseFrame(a, nil); err != nil {
		t.Fatalf("daemon did not answer the columns it asked for: %v", err)
	} else {
		same("projected vs full", decsProj, decsRt)
	}
	if b[6] != serve.StatusColumns || binary.BigEndian.Uint64(b[head:]) != serve.AllColumns || len(b) != head+8+2 || b[head+8]|b[head+9] != 0 {
		t.Fatalf("router answered a projected frame with % x, want a bare StatusColumns naming every column", b)
	}
	if n := rt.Metrics().ColumnResends.Load(); n != 1 {
		t.Fatalf("router counted %d column resends, want 1", n)
	}
	// One column short of what the daemon reads: the same refusal from it,
	// naming its eight, with nothing decided, observed or counted.
	met := srv.Metrics()
	moved := func() [4]int64 { // decisions, errors, fallbacks, float64 inference rows
		return [4]int64{met.Decisions.Load(), met.Errors.Load(), met.Fallbacks.Load(), met.InferRowsF64.Load()}
	}
	before := moved()
	a, _, errA, _ = answer(project(keyed, eight&^(1<<counters.IdxInstr)))
	if errA != nil || a[6] != serve.StatusColumns || binary.BigEndian.Uint64(a[head:]) != eight || len(a) != head+8+2 {
		t.Fatalf("daemon answered a frame lacking a fallback column with % x (%v)", a, errA)
	}
	if after := moved(); after != before || met.ColumnResends.Load() != 1 {
		t.Fatalf("the refused frame moved the daemon's counters: %v → %v", before, after)
	}

	// Frames that break the protocol: the same typed refusal from both.
	mutate := func(src []byte, f func([]byte)) []byte {
		c := append([]byte(nil), src...)
		f(c)
		return c
	}
	for name, bad := range map[string]struct {
		frame []byte
		code  int
	}{
		"empty":            {nil, serve.ErrCodeBadFrame},
		"bad magic":        {[]byte("GET / HTTP/1.1\r\n"), serve.ErrCodeBadMagic},
		"v2 header":        {append(v2Header(), keyed[6:]...), serve.ErrCodeVersion},
		"v3 header":        {append(v3Header(), keyed[6:]...), serve.ErrCodeVersion},
		"hello for v5..v9": {serve.AppendHelloFrame(nil, serve.Version+1, 9), serve.ErrCodeVersion},
		"padded hello":     {append(serve.AppendHelloFrame(nil, serve.Version, serve.Version), 0), serve.ErrCodeBadFrame},
		"mask past dim":    {mutate(project(keyed, eight), func(c []byte) { c[10] |= 0x80 }), serve.ErrCodeBadFrame},
		"mask bit 47":      {mutate(keyed, func(c []byte) { c[12] |= 0x80 }), serve.ErrCodeBadFrame},
		"a response":       {a, serve.ErrCodeBadFrame},
		"retired type 1":   {mutate(keyed, func(c []byte) { c[5] = 1 }), serve.ErrCodeBadFrame},
		"truncated keyed":  {keyed[:len(keyed)-1], serve.ErrCodeBadFrame},
		"truncated traced": {traced[:20], serve.ErrCodeBadFrame},
		"zero rows":        {mutate(keyed, func(c []byte) { c[6], c[7] = 0, 0 }), serve.ErrCodeBadFrame},
	} {
		x, y, errX, errY := answer(bad.frame)
		for who, got := range map[string]struct {
			reply []byte
			err   error
		}{"daemon": {x, errX}, "router": {y, errY}} {
			var pe, sent *serve.ProtoError
			if !errors.As(got.err, &pe) || pe.Code != bad.code {
				t.Errorf("%s, %s: err = %v, want ProtoError code %d", name, who, got.err, bad.code)
			}
			if !errors.As(serve.DecodeErrorFrame(got.reply), &sent) || sent.Code != bad.code {
				t.Errorf("%s, %s: reply carries %v, want code %d", name, who, sent, bad.code)
			}
			if _, err := serve.DecodeKeyedResponseFrame(got.reply, nil); !errors.As(err, &pe) {
				t.Errorf("%s, %s: reply is not a MsgError frame: %v", name, who, err)
			}
		}
	}
}
