package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"time"

	"ssmdvfs/internal/infer"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// addWireSeeds seeds a fuzz target with one of every frame the encoders
// build — request and response of both kinds, hello, ack, error — and
// each again cut short by one byte. stream wraps each in its length
// prefix, for targets that read from a connection.
func addWireSeeds(f *testing.F, stream bool) {
	f.Helper()
	rng := rand.New(rand.NewSource(1))
	rows := []Request{
		{Preset: 0.1, Features: featureRow(rng), GPU: 3, Cluster: 7},
		{Preset: 0.2, Features: featureRow(rng), GPU: -1, Cluster: -1},
	}
	decs := []Decision{
		{Level: 3, Reason: provenance.ReasonModel, PredInstr: 42.5, Shard: -1},
		{Level: 5, Reason: provenance.ReasonShed, PredInstr: 17, Shard: 2, Rerouted: true},
	}
	tc := telemetry.TraceContext{TraceID: 0xabcdef, SpanID: 0x1234, Flags: telemetry.FlagSampled}
	must := func(b []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	for _, frame := range [][]byte{
		must(AppendKeyedRequestFrame(nil, rows)),
		must(AppendTracedRequestFrame(nil, rows, tc)),
		must(AppendKeyedResponseFrame(nil, StatusOK, decs)),
		must(AppendTracedResponseFrame(nil, StatusOK, decs, tc.TraceID, HopTimings{QueueUs: 5, InferUs: 80})),
		AppendHelloFrame(nil, Version, Version),
		AppendHelloAckFrame(nil, Hello{Version: Version, Tracing: true, Backend: infer.KindInt8, Generation: 4}),
		AppendErrorFrame(nil, ErrCodeVersion, "no common version"),
	} {
		if stream {
			frame = append(binary.BigEndian.AppendUint32(nil, uint32(len(frame))), frame...)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
}

// FuzzDecodeRequest: the request decoder never panics, and whatever it
// accepts re-encodes — traced or keyed, as decoded — to the input byte
// for byte.
func FuzzDecodeRequest(f *testing.F) {
	addWireSeeds(f, false)
	var scratch []Request
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, tc, traced, err := DecodeRequest(data, scratch)
		if err != nil {
			return
		}
		scratch = rows
		if len(rows) == 0 || len(rows) > MaxBatch {
			t.Fatalf("accepted a %d-row request", len(rows))
		}
		ptc := &tc
		if !traced {
			if ptc = nil; tc != (telemetry.TraceContext{}) {
				t.Fatalf("keyed request decoded with trace context %+v", tc)
			}
		}
		if again, err := appendRequest(nil, rows, ptc); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("decode∘encode is not the identity (err %v):\n in %x\nout %x", err, data, again)
		}
	})
}

// FuzzDecodeResponse: the response decoder, asked for either kind, never
// panics and never accepts more than MaxBatch rows, and whatever it
// accepts re-encodes to the input (up to the flag bits it does not know).
func FuzzDecodeResponse(f *testing.F) {
	addWireSeeds(f, false)
	var scratch []Decision
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, want := range []byte{MsgDecisionsKeyed, MsgDecisionsTraced} {
			decs, hops, err := decodeResponse(data, scratch, want)
			if err != nil {
				continue
			}
			scratch = decs
			if len(decs) > MaxBatch {
				t.Fatalf("accepted a %d-row response", len(decs))
			}
			traced, first := want == MsgDecisionsTraced, headerLen+1+2
			var traceID uint64
			if traced {
				traceID, first = binary.BigEndian.Uint64(data[headerLen+1:]), first+traceRespLen
			}
			canon := append([]byte(nil), data...)
			for p := first; p < len(canon); p += respRow {
				canon[p+2] &= decFlagRerouted
			}
			if again, err := AppendResponse(nil, StatusOK, decs, traced, traceID, hops); err != nil || !bytes.Equal(again, canon) {
				t.Fatalf("decode∘encode is not the identity (err %v):\n in %x\nout %x", err, canon, again)
			}
		}
	})
}

// stubEndpoint answers every row with a decision made from its index.
type stubEndpoint struct{}

func (stubEndpoint) HelloAck() Hello {
	return Hello{Router: true, Shards: 2, Backend: infer.KindFloat64, Generation: 7}
}

func (stubEndpoint) DecideFrame(rows []Request, decs []Decision, tc telemetry.TraceContext, _ time.Time) ([]Decision, HopTimings) {
	for i := range rows {
		decs = append(decs, Decision{Level: i % 6, Reason: provenance.ReasonModel, PredInstr: float64(i), Shard: i % 2})
	}
	return decs, HopTimings{InferUs: uint32(len(rows))}
}

// FuzzAnswer: any bytes through FrameScratch.Answer never panic, and the
// reply is always a well-formed ack, response or error frame — the error
// frame exactly when err is non-nil, carrying err's code. The raw input
// also goes through the two decoders Answer itself never calls.
func FuzzAnswer(f *testing.F) {
	addWireSeeds(f, false)
	var fs FrameScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeHelloAckFrame(data)
		DecodeErrorFrame(data)

		reply, rows, tc, err := fs.Answer(data, stubEndpoint{}, time.Time{})
		msgType, herr := parseHeader(reply)
		if herr != nil {
			t.Fatalf("reply has no valid header: %v", herr)
		}
		if (msgType == MsgError) != (err != nil) {
			t.Fatalf("reply type %d with err = %v", msgType, err)
		}
		switch msgType {
		case MsgError:
			var pe, sent *ProtoError
			if !errors.As(err, &pe) || !errors.As(DecodeErrorFrame(reply), &sent) || *sent != *pe {
				t.Fatalf("refusal %v sent as %v", err, sent)
			}
			if rows != 0 {
				t.Fatalf("refusal reports %d served rows", rows)
			}
		case MsgHelloAck:
			want := stubEndpoint{}.HelloAck()
			want.Version, want.Tracing = Version, true
			if h, err := DecodeHelloAckFrame(reply); err != nil || h != want {
				t.Fatalf("ack = %+v, %v; want %+v", h, err, want)
			}
		case MsgDecisionsKeyed, MsgDecisionsTraced:
			decs, hops, err := decodeResponse(reply, nil, msgType)
			if err != nil || len(decs) != rows || rows == 0 {
				t.Fatalf("response of %d decisions for %d rows: %v", len(decs), rows, err)
			}
			if traced := msgType == MsgDecisionsTraced; traced != (data[5] == MsgDecideTraced) ||
				(traced && (hops.InferUs != uint32(rows) || binary.BigEndian.Uint64(reply[headerLen+1:]) != tc.TraceID)) {
				t.Fatalf("request type %d answered by type %d, hops %+v, tc %+v", data[5], msgType, hops, tc)
			}
		default:
			t.Fatalf("reply of type %d", msgType)
		}
	})
}

// FuzzReadFrame: an arbitrary stream through ReadFrame yields exactly the
// frames its prefixes delimit, never one above MaxFrame, and never grows
// the buffer past MaxFrame on a prefix's say-so.
func FuzzReadFrame(f *testing.F) {
	addWireSeeds(f, true)
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 'x', 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for rest := data; ; {
			frame, err := ReadFrame(br, buf)
			if err != nil {
				var pe *ProtoError
				if oversized := len(rest) >= 4 && binary.BigEndian.Uint32(rest) > MaxFrame; oversized != errors.As(err, &pe) {
					t.Fatalf("stream %x: err = %v", rest, err)
				}
				return
			}
			n := int(binary.BigEndian.Uint32(rest))
			if n > MaxFrame || cap(frame) > MaxFrame || !bytes.Equal(frame, rest[4:4+n]) {
				t.Fatalf("stream %x: read a %d-byte frame (cap %d)", rest, len(frame), cap(frame))
			}
			buf, rest = frame, rest[4+n:]
		}
	})
}
