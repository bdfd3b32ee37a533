package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

func randRows(n int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Request, n)
	for i := range rows {
		rows[i].Preset = rng.Float64() * 0.3
		rows[i].GPU, rows[i].Cluster = int32(rng.Intn(1<<20))-1, int32(rng.Intn(25))-1
		rows[i].Features = make([]float64, counters.Num)
		for j := range rows[i].Features {
			rows[i].Features[j] = rng.NormFloat64() * 1000
		}
	}
	return rows
}

// frameKinds are the two kinds of the one frame — without and with the
// trace section. Every codec table below runs over both.
var frameKinds = []struct {
	name      string
	tc        *telemetry.TraceContext // nil: untraced
	reqType   byte
	respType  byte
	reqCount  int // offset of the request's row count
	respCount int // offset of the response's row count
}{
	{"keyed", nil, MsgDecideKeyed, MsgDecisionsKeyed, headerLen, headerLen + 1 + 8},
	{"traced", &telemetry.TraceContext{TraceID: 0xabcdef, SpanID: 0x1234, Flags: telemetry.FlagSampled},
		MsgDecideTraced, MsgDecisionsTraced, headerLen + traceReqLen, headerLen + 1 + traceRespLen + 8},
}

// testMasks are the column sets the codec tables run under: every
// column, the eight a daemon on the selected five asks for, and the
// single last one.
var testMasks = []uint64{AllColumns, projected, 1 << (counters.Num - 1)}

func TestRequestFrameRoundTrip(t *testing.T) {
	for _, k := range frameKinds {
		for _, n := range []int{1, 2, 64, MaxBatch} {
			for _, mask := range testMasks {
				rows := randRows(n, int64(n))
				payload, err := appendRequest(nil, rows, mask, k.tc)
				if err != nil {
					t.Fatalf("%s n=%d: %v", k.name, n, err)
				}
				dim := bits.OnesCount64(mask)
				if want := k.reqCount + rowsHeadLen + n*(reqRowFixed+8+8*dim); len(payload) != want {
					t.Fatalf("%s n=%d mask %#x: frame is %d bytes, want %d", k.name, n, mask, len(payload), want)
				}
				got, columns, tc, traced, err := DecodeRequest(payload, nil)
				if err != nil {
					t.Fatalf("%s n=%d: %v", k.name, n, err)
				}
				if traced != (k.tc != nil) || (traced && tc != *k.tc) || (!traced && tc != telemetry.TraceContext{}) {
					t.Fatalf("%s n=%d: decoded traced=%v tc=%+v", k.name, n, traced, tc)
				}
				if len(got) != n || columns != mask {
					t.Fatalf("%s n=%d: decoded %d rows under mask %#x, want %#x", k.name, n, len(got), columns, mask)
				}
				for i := range got {
					if got[i].Preset != rows[i].Preset || got[i].GPU != rows[i].GPU || got[i].Cluster != rows[i].Cluster {
						t.Fatalf("%s row %d = (%d,%d,%g), want (%d,%d,%g)", k.name, i,
							got[i].GPU, got[i].Cluster, got[i].Preset, rows[i].GPU, rows[i].Cluster, rows[i].Preset)
					}
					if len(got[i].Features) != counters.Num {
						t.Fatalf("%s row %d decoded %d wide", k.name, i, len(got[i].Features))
					}
					for j, v := range got[i].Features {
						want := rows[i].Features[j]
						if mask>>j&1 == 0 {
							want = 0
						}
						if math.Float64bits(v) != math.Float64bits(want) {
							t.Fatalf("%s mask %#x row %d feature %d = %v, want %v", k.name, mask, i, j, v, want)
						}
					}
				}
			}
		}
	}
}

func TestResponseFrameRoundTrip(t *testing.T) {
	decs := []Decision{
		{Level: 0, PredInstr: 0, Shard: -1},
		{Level: 5, Reason: provenance.ReasonShed, PredInstr: 12345.5, Shard: 2, Rerouted: true},
		{Level: 255, PredInstr: 1e18, Shard: 0},
	}
	hops := HopTimings{QueueUs: 5, CoalesceUs: 9, DispatchUs: 140, InferUs: 80}
	for _, k := range frameKinds {
		payload, err := AppendResponse(nil, StatusOK, projected, decs, k.tc != nil, 0xabcdef, hops)
		if err != nil {
			t.Fatal(err)
		}
		got, gotHops, columns, err := decodeResponse(payload, nil, k.respType)
		if err != nil || columns != projected {
			t.Fatalf("%s: mask %#x, err %v", k.name, columns, err)
		}
		want := HopTimings{}
		if k.tc != nil {
			want = hops
		}
		if gotHops != want {
			t.Fatalf("%s: hops = %+v, want %+v", k.name, gotHops, want)
		}
		if len(got) != len(decs) {
			t.Fatalf("%s: decoded %d decisions, want %d", k.name, len(got), len(decs))
		}
		for i := range got {
			if got[i] != decs[i] {
				t.Fatalf("%s: decision %d = %+v, want %+v", k.name, i, got[i], decs[i])
			}
		}

		// The refusal: the endpoint's mask, no rows, its own error.
		refusal, err := AppendResponse(nil, StatusColumns, projected, nil, k.tc != nil, 0xabcdef, HopTimings{})
		if err != nil {
			t.Fatal(err)
		}
		if got, _, columns, err := decodeResponse(refusal, nil, k.respType); err != errColumns || columns != projected || got != nil {
			t.Fatalf("%s: refusal decoded to %d rows, mask %#x, err %v", k.name, len(got), columns, err)
		}
	}
}

func TestEncodeRejectsBadBatches(t *testing.T) {
	short := randRows(1, 2)
	short[0].Features = short[0].Features[:10]
	ragged := randRows(2, 3)
	ragged[1].Features = ragged[1].Features[:10]
	for _, k := range frameKinds {
		for name, rows := range map[string][]Request{
			"empty batch":             nil,
			"oversized batch":         randRows(MaxBatch+1, 1),
			"wrong feature dimension": short,
			"ragged batch":            ragged,
		} {
			for _, mask := range testMasks {
				if _, err := appendRequest(nil, rows, mask, k.tc); err == nil {
					t.Errorf("%s: %s accepted under mask %#x", k.name, name, mask)
				}
			}
		}
		for _, mask := range []uint64{0, 1 << counters.Num, 1<<63 | 1} {
			if _, err := appendRequest(nil, randRows(1, 1), mask, k.tc); err == nil {
				t.Errorf("%s: request under mask %#x accepted", k.name, mask)
			}
			if _, err := AppendResponse(nil, StatusOK, mask, nil, k.tc != nil, 1, HopTimings{}); err == nil {
				t.Errorf("%s: response naming mask %#x accepted", k.name, mask)
			}
		}
		if _, err := AppendResponse(nil, StatusOK, AllColumns, []Decision{{Level: 300}}, k.tc != nil, 1, HopTimings{}); err == nil {
			t.Errorf("%s: level 300 accepted", k.name)
		}
		if _, err := AppendResponse(nil, StatusOK, AllColumns, make([]Decision, MaxBatch+1), k.tc != nil, 1, HopTimings{}); err == nil {
			t.Errorf("%s: %d-row response accepted", k.name, MaxBatch+1)
		}
	}
}

// TestDecodeRejectsCorruptFrames walks a table of truncated, oversized,
// and corrupted payloads through both decoders, for both frame kinds.
func TestDecodeRejectsCorruptFrames(t *testing.T) {
	mutate := func(src []byte, f func([]byte)) []byte {
		b := append([]byte(nil), src...)
		f(b)
		return b
	}
	for ki, k := range frameKinds {
		other := frameKinds[1-ki]
		goodReq, err := appendRequest(nil, randRows(3, 4), AllColumns, k.tc)
		if err != nil {
			t.Fatal(err)
		}
		// The same rows under the eight-column mask, for the cases where
		// mask, dimension and length must agree.
		projReq, err := appendRequest(nil, randRows(3, 4), projected, k.tc)
		if err != nil {
			t.Fatal(err)
		}
		goodResp, err := AppendResponse(nil, StatusOK, AllColumns, []Decision{{Level: 2, PredInstr: 7}}, k.tc != nil, 1, HopTimings{})
		if err != nil {
			t.Fatal(err)
		}
		putMask := func(at int, mask uint64) func([]byte) {
			return func(b []byte) { binary.BigEndian.PutUint64(b[at:], mask) }
		}
		decodeReq := func(p []byte) error {
			_, _, _, traced, err := DecodeRequest(p, nil)
			if err == nil && traced != (k.tc != nil) {
				err = errWrongType(p[5], k.reqType) // what the typed entry points say
			}
			return err
		}
		decodeResp := func(p []byte) error {
			_, _, _, err := decodeResponse(p, nil, k.respType)
			return err
		}
		cases := []struct {
			name    string
			payload []byte
			decode  func([]byte) error
		}{
			{"req empty", nil, decodeReq},
			{"req short header", goodReq[:headerLen-1], decodeReq},
			{"req header only", goodReq[:headerLen], decodeReq},
			{"req cut before the row count", goodReq[:k.reqCount+1], decodeReq},
			{"req truncated row", goodReq[:len(goodReq)-8], decodeReq},
			{"req one extra byte", append(append([]byte(nil), goodReq...), 0), decodeReq},
			{"req bad magic", mutate(goodReq, func(b []byte) { b[0] = 'X' }), decodeReq},
			{"req bad version", mutate(goodReq, func(b []byte) { b[4] = 9 }), decodeReq},
			{"req version 2", mutate(goodReq, func(b []byte) { b[4] = 2 }), decodeReq},
			{"req version 3", mutate(goodReq, func(b []byte) { b[4] = 3 }), decodeReq},
			{"req cut inside the mask", goodReq[:k.reqCount+8], decodeReq},
			{"req zero mask", mutate(goodReq, putMask(k.reqCount+4, 0)), decodeReq},
			{"req mask bit 47", mutate(goodReq, putMask(k.reqCount+4, AllColumns|1<<counters.Num)), decodeReq},
			{"req mask bit 63", mutate(projReq, putMask(k.reqCount+4, projected|1<<63)), decodeReq},
			{"req mask wider than dim", mutate(projReq, putMask(k.reqCount+4, projected|1<<40)), decodeReq},
			{"req mask narrower than dim", mutate(projReq, putMask(k.reqCount+4, projected&^1)), decodeReq},
			{"req full dim under a projected mask", mutate(goodReq, putMask(k.reqCount+4, projected)), decodeReq},
			{"req projected truncated row", projReq[:len(projReq)-8], decodeReq},
			{"req retired v2 type", mutate(goodReq, func(b []byte) { b[5] = 1 }), decodeReq},
			{"req response type", mutate(goodReq, func(b []byte) { b[5] = k.respType }), decodeReq},
			{"req other kind's type", mutate(goodReq, func(b []byte) { b[5] = other.reqType }), decodeReq},
			{"req zero rows", mutate(goodReq, func(b []byte) { binary.BigEndian.PutUint16(b[k.reqCount:], 0) }), decodeReq},
			{"req oversized count", mutate(goodReq, func(b []byte) { binary.BigEndian.PutUint16(b[k.reqCount:], MaxBatch+1) }), decodeReq},
			{"req count/size mismatch", mutate(goodReq, func(b []byte) { binary.BigEndian.PutUint16(b[k.reqCount:], 2) }), decodeReq},
			{"req wrong dim", mutate(goodReq, func(b []byte) { binary.BigEndian.PutUint16(b[k.reqCount+2:], 5) }), decodeReq},
			{"resp empty", nil, decodeResp},
			{"resp cut before the row count", goodResp[:k.respCount+1], decodeResp},
			{"resp truncated", goodResp[:len(goodResp)-1], decodeResp},
			{"resp extra byte", append(append([]byte(nil), goodResp...), 0), decodeResp},
			{"resp bad version", mutate(goodResp, func(b []byte) { b[4] = 2 }), decodeResp},
			{"resp retired v2 type", mutate(goodResp, func(b []byte) { b[5] = 2 }), decodeResp},
			{"resp request type", mutate(goodResp, func(b []byte) { b[5] = k.reqType }), decodeResp},
			{"resp other kind's type", mutate(goodResp, func(b []byte) { b[5] = other.respType }), decodeResp},
			{"resp error status", mutate(goodResp, func(b []byte) { b[6] = StatusError }), decodeResp},
			{"resp unknown status", mutate(goodResp, func(b []byte) { b[6] = StatusColumns + 1 }), decodeResp},
			{"resp column refusal with a row", mutate(goodResp, func(b []byte) { b[6] = StatusColumns }), decodeResp},
			{"resp cut inside the mask", goodResp[:k.respCount-1], decodeResp},
			{"resp zero mask", mutate(goodResp, putMask(k.respCount-8, 0)), decodeResp},
			{"resp mask bit 47", mutate(goodResp, putMask(k.respCount-8, 1<<counters.Num)), decodeResp},
			{"resp count mismatch", mutate(goodResp, func(b []byte) { binary.BigEndian.PutUint16(b[k.respCount:], 40) }), decodeResp},
		}
		for _, c := range cases {
			if err := c.decode(c.payload); err == nil {
				t.Errorf("%s: %s: corrupt frame accepted", k.name, c.name)
			}
		}
		if err := decodeReq(goodReq); err != nil {
			t.Errorf("%s: good request refused: %v", k.name, err)
		}
		if err := decodeReq(projReq); err != nil {
			t.Errorf("%s: good projected request refused: %v", k.name, err)
		}
		if err := decodeResp(goodResp); err != nil {
			t.Errorf("%s: good response refused: %v", k.name, err)
		}
	}

	// The typed entry points refuse a good frame of the other kind.
	keyedReq, _ := AppendKeyedRequestFrame(nil, randRows(1, 5))
	tracedReq, _ := AppendTracedRequestFrame(nil, randRows(1, 5), *frameKinds[1].tc)
	if _, err := DecodeKeyedRequestFrame(tracedReq, nil); err == nil {
		t.Error("DecodeKeyedRequestFrame accepted a traced frame")
	}
	if _, _, err := DecodeTracedRequestFrame(keyedReq, nil); err == nil {
		t.Error("DecodeTracedRequestFrame accepted a keyed frame")
	}
}

func TestReadFrameRejectsOversizedAndTruncated(t *testing.T) {
	// An oversized prefix is refused as the *ProtoError a server sends
	// back, whatever follows it and without allocating what it claims.
	for _, size := range []uint32{MaxFrame + 1, 1 << 31, 1<<32 - 1} {
		huge := binary.BigEndian.AppendUint32(nil, size)
		huge = append(huge, "whatever follows"...)
		buf := make([]byte, 16)
		got, err := ReadFrame(bytes.NewReader(huge), buf)
		var pe *ProtoError
		if !errors.As(err, &pe) || pe.Code != ErrCodeBadFrame || !strings.Contains(pe.Msg, "exceeds") {
			t.Fatalf("prefix %d: err = %v, want ProtoError code %d", size, err, ErrCodeBadFrame)
		}
		if got != nil {
			t.Fatalf("prefix %d: returned %d bytes alongside the refusal", size, len(got))
		}
	}
	// MaxFrame itself is in bounds: the refusal is the stream running dry.
	atLimit := binary.BigEndian.AppendUint32(nil, MaxFrame)
	if _, err := ReadFrame(bytes.NewReader(atLimit), nil); !errors.Is(err, io.EOF) || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("frame of exactly MaxFrame: err = %v", err)
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
// nothing, for a one-row frame and for a 64-row one, at full width (a
// flight recorder armed), projected to the eight columns a bare daemon
// reads, and across the change from one to the other: each measured run
// starts the client over from the full mask, so it sends one full frame,
// learns the eight, and sends a projected one that the server scatters
// into the scratch rows the full frame just filled.
func TestRoundTripZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under the race detector")
	}
	for _, width := range []struct {
		name  string
		armed bool
		mask  uint64
	}{{"projected", false, projected}, {"full", true, AllColumns}} {
		srv, err := NewServer(testModel(t, 41), Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if width.armed {
			srv.EnableProvenance(256, provenance.MonitorOptions{})
		}
		cl, err := Dial(listenServer(t, srv))
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
			roundTrips := func() {
				cl.columns = AllColumns // as a new connection starts
				for i := 0; i < 2; i++ {
					if _, err := cl.DecideKeyed(rows); err != nil {
						t.Fatal(err)
					}
				}
				if cl.Columns() != width.mask {
					t.Fatalf("%s: client ended on mask %#x, want %#x", width.name, cl.Columns(), width.mask)
				}
			}
			for i := 0; i < 8; i++ {
				roundTrips() // grow both sides' frame buffers
			}
			if allocs := testing.AllocsPerRun(200, roundTrips); allocs != 0 {
				t.Errorf("%s: two %d-row DecideKeyed round trips allocate %.2f objects, want 0", width.name, n, allocs)
			}
		}
	}
}

// TestFrameScratchReuse verifies decoders reuse caller scratch without
// corrupting earlier results only after the caller hands it back.
func TestFrameScratchReuse(t *testing.T) {
	for _, k := range frameKinds {
		payload, err := appendRequest(nil, randRows(8, 7), AllColumns, k.tc)
		if err != nil {
			t.Fatal(err)
		}
		scratch, _, _, _, err := DecodeRequest(payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Re-decode into the same scratch: no new feature allocations needed.
		again, _, _, _, err := DecodeRequest(payload, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if &again[0] != &scratch[0] || &again[7].Features[0] != &scratch[7].Features[0] {
			t.Fatalf("%s: scratch not reused", k.name)
		}
		// A narrower frame into the same scratch: still no allocation, and
		// nothing of the full rows shows through the columns it lacks.
		narrow, err := appendRequest(nil, randRows(8, 8), 1<<(counters.Num-1), k.tc)
		if err != nil {
			t.Fatal(err)
		}
		again, _, _, _, err = DecodeRequest(narrow, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if &again[7].Features[0] != &scratch[7].Features[0] {
			t.Fatalf("%s: scratch not reused under a narrower mask", k.name)
		}
		for i, row := range again {
			for j, v := range row.Features[:counters.Num-1] {
				if math.Float64bits(v) != 0 {
					t.Fatalf("%s: row %d column %d = %v shows through a frame that lacks it", k.name, i, j, v)
				}
			}
		}
	}
}
