package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"

	"ssmdvfs/internal/counters"
)

func randRows(n int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Request, n)
	for i := range rows {
		rows[i].Preset = rng.Float64() * 0.3
		rows[i].Features = make([]float64, counters.Num)
		for j := range rows[i].Features {
			rows[i].Features[j] = rng.NormFloat64() * 1000
		}
	}
	return rows
}

func TestRequestFrameRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 64, MaxBatch} {
		rows := randRows(n, int64(n))
		payload, err := AppendRequestFrame(nil, rows)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := DecodeRequestFrame(payload, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d rows", n, len(got))
		}
		for i := range got {
			if got[i].Preset != rows[i].Preset {
				t.Fatalf("row %d preset %g != %g", i, got[i].Preset, rows[i].Preset)
			}
			for j := range got[i].Features {
				if got[i].Features[j] != rows[i].Features[j] {
					t.Fatalf("row %d feature %d differs", i, j)
				}
			}
		}
	}
}

func TestResponseFrameRoundTrip(t *testing.T) {
	// v2 frames carry no shard identity: decode always yields Shard -1.
	decs := []Decision{{Level: 0, PredInstr: 0, Shard: -1}, {Level: 5, PredInstr: 12345.5, Shard: -1}, {Level: 255, PredInstr: 1e18, Shard: -1}}
	payload, err := AppendResponseFrame(nil, StatusOK, decs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponseFrame(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(decs) {
		t.Fatalf("decoded %d decisions, want %d", len(got), len(decs))
	}
	for i := range got {
		if got[i] != decs[i] {
			t.Fatalf("decision %d = %+v, want %+v", i, got[i], decs[i])
		}
	}
}

func TestEncodeRejectsBadBatches(t *testing.T) {
	if _, err := AppendRequestFrame(nil, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := AppendRequestFrame(nil, randRows(MaxBatch+1, 1)); err == nil {
		t.Fatal("oversized batch accepted")
	}
	short := randRows(1, 2)
	short[0].Features = short[0].Features[:10]
	if _, err := AppendRequestFrame(nil, short); err == nil {
		t.Fatal("wrong feature dimension accepted")
	}
	ragged := randRows(2, 3)
	ragged[1].Features = ragged[1].Features[:10]
	if _, err := AppendRequestFrame(nil, ragged); err == nil {
		t.Fatal("ragged batch accepted")
	}
	if _, err := AppendResponseFrame(nil, StatusOK, []Decision{{Level: 300}}); err == nil {
		t.Fatal("level 300 accepted")
	}
}

// TestDecodeRejectsCorruptFrames walks a table of truncated, oversized,
// and corrupted payloads through both decoders.
func TestDecodeRejectsCorruptFrames(t *testing.T) {
	goodReq, err := AppendRequestFrame(nil, randRows(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	goodResp, err := AppendResponseFrame(nil, StatusOK, []Decision{{Level: 2, PredInstr: 7}})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(src []byte, f func([]byte)) []byte {
		b := append([]byte(nil), src...)
		f(b)
		return b
	}
	cases := []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"req empty", nil, decodeReq},
		{"req header only", goodReq[:headerLen], decodeReq},
		{"req truncated row", goodReq[:len(goodReq)-8], decodeReq},
		{"req one extra byte", append(append([]byte(nil), goodReq...), 0), decodeReq},
		{"req bad magic", mutate(goodReq, func(b []byte) { b[0] = 'X' }), decodeReq},
		{"req bad version", mutate(goodReq, func(b []byte) { b[4] = 9 }), decodeReq},
		{"req wrong type", mutate(goodReq, func(b []byte) { b[5] = MsgDecisions }), decodeReq},
		{"req zero rows", mutate(goodReq, func(b []byte) { binary.BigEndian.PutUint16(b[6:], 0) }), decodeReq},
		{"req oversized count", mutate(goodReq, func(b []byte) { binary.BigEndian.PutUint16(b[6:], MaxBatch+1) }), decodeReq},
		{"req count/size mismatch", mutate(goodReq, func(b []byte) { binary.BigEndian.PutUint16(b[6:], 2) }), decodeReq},
		{"req wrong dim", mutate(goodReq, func(b []byte) { binary.BigEndian.PutUint16(b[8:], 5) }), decodeReq},
		{"resp empty", nil, decodeResp},
		{"resp truncated", goodResp[:len(goodResp)-1], decodeResp},
		{"resp extra byte", append(append([]byte(nil), goodResp...), 0), decodeResp},
		{"resp wrong type", mutate(goodResp, func(b []byte) { b[5] = MsgDecide }), decodeResp},
		{"resp error status", mutate(goodResp, func(b []byte) { b[6] = StatusError }), decodeResp},
		{"resp count mismatch", mutate(goodResp, func(b []byte) { binary.BigEndian.PutUint16(b[7:], 40) }), decodeResp},
	}
	for _, c := range cases {
		if err := c.decode(c.payload); err == nil {
			t.Errorf("%s: corrupt frame accepted", c.name)
		}
	}
}

func decodeReq(p []byte) error {
	_, err := DecodeRequestFrame(p, nil)
	return err
}

func decodeResp(p []byte) error {
	_, err := DecodeResponseFrame(p, nil)
	return err
}

func TestReadFrameRejectsOversizedAndTruncated(t *testing.T) {
	var huge bytes.Buffer
	binary.Write(&huge, binary.BigEndian, uint32(MaxFrame+1))
	if _, err := ReadFrame(&huge, nil); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized frame: err = %v", err)
	}

	var trunc bytes.Buffer
	binary.Write(&trunc, binary.BigEndian, uint32(100))
	trunc.WriteString("only a few bytes")
	if _, err := ReadFrame(&trunc, nil); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated frame: err = %v", err)
	}

	// A stream that ends at a frame boundary is a clean close; one that
	// ends inside the length prefix is not. ServeConn tells the two apart.
	if _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0}), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("stream cut inside the prefix: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestRoundTripZeroAlloc pins the transport's allocation count: a warm
// loopback DecideKeyed — client encode, write and read, server read,
// decide and write; AllocsPerRun counts every goroutine — allocates
// nothing, for a one-row frame and for a 64-row one.
func TestRoundTripZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under the race detector")
	}
	srv, err := NewServer(testModel(t, 41), Options{Workers: 2})
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

	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 64} {
		rows := make([]Request, n)
		for i := range rows {
			rows[i] = Request{Preset: 0.1, Features: featureRow(rng), GPU: 3, Cluster: int32(i % 24)}
		}
		roundTrip := func() {
			if _, err := cl.DecideKeyed(rows); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			roundTrip() // grow both sides' frame buffers
		}
		if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
			t.Errorf("%d-row DecideKeyed round trip allocates %.2f objects/op, want 0", n, allocs)
		}
	}
}

// TestFrameScratchReuse verifies decoders reuse caller scratch without
// corrupting earlier results only after the caller hands it back.
func TestFrameScratchReuse(t *testing.T) {
	rows := randRows(8, 7)
	payload, err := AppendRequestFrame(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := DecodeRequestFrame(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Re-decode into the same scratch: no new feature allocations needed.
	again, err := DecodeRequestFrame(payload, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &scratch[0] {
		t.Fatal("scratch not reused")
	}
}
