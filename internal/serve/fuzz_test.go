package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"ssmdvfs/internal/baselines"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// projected is the mask a daemon serving the five selected counters with
// no plane armed reads: those five and the analytical fallback's.
const projected = 1<<counters.IdxIPC | 1<<counters.IdxPPC | 1<<counters.IdxL1CRM | baselines.FallbackColumns

// addWireSeeds seeds a fuzz target with one of every frame the encoders
// build — request (full and projected rows) and response (answered and
// refused for columns) of both kinds, hello, ack, error — and each again
// cut short by one byte. stream wraps each in its length prefix, for
// targets that read from a connection.
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
		must(appendRequest(nil, rows, projected, nil)),
		must(appendRequest(nil, rows, 1<<(counters.Num-1), &tc)),
		must(AppendKeyedResponseFrame(nil, StatusOK, decs)),
		must(AppendTracedResponseFrame(nil, StatusOK, decs, tc.TraceID, HopTimings{QueueUs: 5, InferUs: 80})),
		must(AppendResponse(nil, StatusOK, projected, decs, false, 0, HopTimings{})),
		must(AppendResponse(nil, StatusColumns, projected, nil, false, 0, HopTimings{})),
		must(AppendResponse(nil, StatusColumns, AllColumns, nil, true, tc.TraceID, HopTimings{})),
		AppendHelloFrame(nil, Version, Version),
		AppendHelloAckFrame(nil, Hello{Version: Version, Tracing: true, Generation: 4}),
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
// accepts re-encodes — traced or keyed, under the decoded mask — to the
// input byte for byte. The mask names existing counters and as many as
// the frame's dimension, and every row comes out full width with exactly
// +0 in each column the mask lacks, whatever the scratch row held before.
func FuzzDecodeRequest(f *testing.F) {
	addWireSeeds(f, false)
	var scratch []Request
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, columns, tc, traced, err := DecodeRequest(data, scratch)
		if err != nil {
			return
		}
		scratch = rows
		if len(rows) == 0 || len(rows) > MaxBatch {
			t.Fatalf("accepted a %d-row request", len(rows))
		}
		dimAt := headerLen + 2
		if traced {
			dimAt += traceReqLen
		}
		if dim := int(binary.BigEndian.Uint16(data[dimAt:])); columns == 0 || columns >= 1<<counters.Num || dim != bits.OnesCount64(columns) {
			t.Fatalf("accepted mask %#x with dimension %d", columns, dim)
		}
		for i, row := range rows {
			if len(row.Features) != counters.Num {
				t.Fatalf("row %d decoded %d wide", i, len(row.Features))
			}
			for j, v := range row.Features {
				if columns>>j&1 == 0 && math.Float64bits(v) != 0 {
					t.Fatalf("row %d: absent column %d reads %v (bits %#x)", i, j, v, math.Float64bits(v))
				}
			}
		}
		ptc := &tc
		if !traced {
			if ptc = nil; tc != (telemetry.TraceContext{}) {
				t.Fatalf("keyed request decoded with trace context %+v", tc)
			}
		}
		if again, err := appendRequest(nil, rows, columns, ptc); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("decode∘encode is not the identity (err %v):\n in %x\nout %x", err, data, again)
		}
		// Leave garbage behind: the next accepted frame must not see it.
		for _, row := range rows {
			for j := range row.Features {
				row.Features[j] = math.NaN()
			}
		}
	})
}

// FuzzDecodeResponse: the response decoder, asked for either kind, never
// panics and never accepts more than MaxBatch rows or a mask naming no
// counter or one that does not exist, and whatever it accepts — answered,
// or refused for columns, which carries no rows — re-encodes to the input
// (up to the flag bits it does not know).
func FuzzDecodeResponse(f *testing.F) {
	addWireSeeds(f, false)
	var scratch []Decision
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, want := range []byte{MsgDecisionsKeyed, MsgDecisionsTraced} {
			decs, hops, columns, err := decodeResponse(data, scratch, want)
			status := byte(StatusOK)
			if err == errColumns {
				if status = StatusColumns; decs != nil {
					t.Fatalf("column refusal decoded %d rows", len(decs))
				}
			} else if err != nil {
				continue
			} else {
				scratch = decs
			}
			if len(decs) > MaxBatch {
				t.Fatalf("accepted a %d-row response", len(decs))
			}
			if columns == 0 || columns >= 1<<counters.Num {
				t.Fatalf("accepted mask %#x", columns)
			}
			traced, first := want == MsgDecisionsTraced, headerLen+1+respHeadLen
			var traceID uint64
			if traced {
				traceID, first = binary.BigEndian.Uint64(data[headerLen+1:]), first+traceRespLen
			}
			canon := append([]byte(nil), data...)
			for p := first; p < len(canon); p += respRow {
				canon[p+2] &= decFlagRerouted
			}
			if again, err := AppendResponse(nil, status, columns, decs, traced, traceID, hops); err != nil || !bytes.Equal(again, canon) {
				t.Fatalf("decode∘encode is not the identity (err %v):\n in %x\nout %x", err, canon, again)
			}
		}
	})
}

// stubEndpoint reads the columns of need and answers every row of a frame
// that carries them with a decision made from its index.
type stubEndpoint struct{ need uint64 }

func (stubEndpoint) HelloAck() Hello {
	return Hello{Router: true, Shards: 2, Generation: 7}
}

func (ep stubEndpoint) DecideFrame(rows []Request, columns uint64, decs []Decision, tc telemetry.TraceContext, _ time.Time) ([]Decision, HopTimings, uint64) {
	if ep.need&^columns != 0 {
		return decs, HopTimings{}, ep.need
	}
	for i := range rows {
		decs = append(decs, Decision{Level: i % 6, Reason: provenance.ReasonModel, PredInstr: float64(i), Shard: i % 2})
	}
	return decs, HopTimings{InferUs: uint32(len(rows))}, ep.need
}

// FuzzAnswer: any bytes through FrameScratch.Answer never panic, and the
// reply is always a well-formed ack, response or error frame — the error
// frame exactly when err is non-nil, carrying err's code. The endpoint
// reads a column set drawn from the input, and a request is answered
// exactly when its mask covers that set and sent back StatusColumns,
// naming the set and serving no rows, exactly when it does not. The raw
// input also goes through the two decoders Answer itself never calls.
func FuzzAnswer(f *testing.F) {
	addWireSeeds(f, false)
	var fs FrameScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeHelloAckFrame(data)
		DecodeErrorFrame(data)

		ep := stubEndpoint{need: projected}
		if h := faults.Mix64(faults.HashString(string(data))); h&3 != 0 { // 1 in 4 keeps the seeds' own mask
			ep.need = h>>2&(h>>17)&AllColumns | 1<<(h%counters.Num) // about a quarter of the columns
		}
		reply, rows, tc, err := fs.Answer(data, ep, time.Time{})
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
			want := ep.HelloAck()
			want.Version, want.Tracing = Version, true
			if h, err := DecodeHelloAckFrame(reply); err != nil || h != want {
				t.Fatalf("ack = %+v, %v; want %+v", h, err, want)
			}
		case MsgDecisionsKeyed, MsgDecisionsTraced:
			sent, sentMask, _, _, derr := DecodeRequest(data, nil)
			if derr != nil {
				t.Fatalf("a request that does not decode was answered: %v", derr)
			}
			covered := ep.need&^sentMask == 0
			decs, hops, need, err := decodeResponse(reply, nil, msgType)
			if need != ep.need || (err == nil) != covered || (!covered && err != errColumns) {
				t.Fatalf("mask %#x against need %#x: reply names %#x, err %v", sentMask, ep.need, need, err)
			}
			want := 0
			if covered {
				want = len(sent)
			}
			if len(decs) != want || rows != want {
				t.Fatalf("%d decisions, %d rows served for %d rows sent (covered %v)", len(decs), rows, len(sent), covered)
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
