// Package serve turns the SSMDVFS model into a long-running decision
// service: the paper's ASIC engine produces one decision per cluster per
// 10 µs epoch, and this package is the software equivalent — a concurrent
// daemon that answers "which operating level next, and how many
// instructions do you expect?" over a compact length-prefixed binary
// protocol on TCP, with zero-downtime model hot-swap and, over HTTP, the
// control and read-out plane (reload, health, metrics, debug dumps).
//
// # Wire protocol
//
// Every message is one length-prefixed frame,
//
//	uint32  payload length (big endian, <= MaxFrame)
//	payload
//
// and every payload starts with a fixed header,
//
//	uint32  magic   "SDVF"
//	uint8   version (Version; anything else is refused with ErrCodeVersion)
//	uint8   message type
//
// There is one request frame. It carries a batch of rows, each the
// requesting cluster's (gpu, cluster) identity, a performance-loss preset
// and the counters the frame's column mask names, in ascending counter
// order: bit i of the mask set means counters.Def(i) is present. A full
// 47-counter row is simply the all-ones mask (AllColumns); there is no
// second layout. A mask of zero, a bit at or above counters.Num, or a
// dimension other than the mask's population count is a malformed frame.
// Identity is optional: gpu = cluster = -1 is a row without one, which a
// daemon answers as it stands and a router shards under a synthetic
// per-frame key. Sent as MsgDecideTraced instead of MsgDecideKeyed, the
// frame carries a distributed-trace section ahead of the rows:
//
//	[ uint64 trace ID, uint64 parent span ID, uint8 trace flags ]
//	uint16  row count (1..MaxBatch)
//	uint16  feature dimension (must equal popcount(columns))
//	uint64  columns (mask of the counters each row carries)
//	rows    count × (uint32 gpu, uint32 cluster, float64 preset, dim × float64)
//
// The server scatters what arrived into zero-filled counters.Num-wide
// rows, so a column that was not sent reads +0 and is never range-checked.
//
// There is one response frame, MsgDecisionsKeyed or MsgDecisionsTraced
// after the request's own kind. It carries the mask of the columns the
// answering endpoint reads — the model's features, the analytical
// fallback's, and every column whenever a plane that stores or prices
// whole rows is armed — which a client adopts for its next request; a
// new connection starts from AllColumns, and nothing is negotiated. Per
// row it carries the chosen level, the provenance reason that produced
// it, a flags byte (bit 0: rerouted), the fleet shard that answered
// (0xffff: none — a daemon answering directly, or a local shed) and the
// predicted next-epoch instruction count; the traced kind echoes the
// trace ID and adds per-hop latency attribution:
//
//	uint8   status (StatusOK; otherwise count is 0)
//	[ uint64 trace ID, uint32 queue µs, coalesce µs, dispatch µs, infer µs ]
//	uint64  columns (mask of the counters the endpoint reads)
//	uint16  row count (<= MaxBatch)
//	rows    count × (uint8 level, uint8 reason, uint8 flags, uint16 shard,
//	                 float64 predicted instructions)
//
// Status StatusColumns says "your frame lacked a column I read": nothing
// was decided, observed or counted, and the same rows sent again under the
// response's mask will be answered. It happens once after a model swap or
// an armed plane widens the set, never when the set narrows.
//
// A client may open with MsgHello (uint8 lowest, uint8 highest version it
// speaks); the peer answers MsgHelloAck (uint8 version, uint8 flags,
// uint16 shard count, uint32 model generation) or refuses. Every refusal
// — bad magic, wrong version, oversized or malformed frame, unknown type
// — is a MsgError frame (uint16 code, uint16 length, message) sent before
// the connection drops, so a mismatched peer gets a typed error instead
// of a hung read.
//
// Message types 1 and 2 (protocol v2's unkeyed request and response),
// version 3 (the same frames without the column masks) and version 4 (a
// hello-ack with a backend byte) are retired and not reused.
package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"time"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

const (
	Magic   = 0x53445646 // "SDVF"
	Version = 5          // the one protocol version

	// MsgDecideKeyed and MsgDecisionsKeyed are the request and response
	// frames without a trace section.
	MsgDecideKeyed    = 3
	MsgDecisionsKeyed = 4

	// MsgHello and MsgHelloAck negotiate on connect: the client offers the
	// [min,max] versions it speaks, the server answers with Version plus
	// its role (daemon or router), shard count and model generation.
	MsgHello    = 5
	MsgHelloAck = 6

	// MsgError is a structured protocol error: a code and a human-readable
	// message, sent before the server drops a connection it cannot serve.
	MsgError = 7

	// MsgDecideTraced and MsgDecisionsTraced are the request and response
	// frames with their trace sections: trace context on the way in,
	// per-hop latency attribution on the way back.
	MsgDecideTraced    = 8
	MsgDecisionsTraced = 9

	// MaxFrame bounds a frame payload; anything larger is rejected before
	// allocation, so a corrupt length prefix cannot balloon memory.
	MaxFrame = 1 << 20

	// MaxBatch bounds the rows in one request or response frame.
	MaxBatch = 1024

	// StatusOK and StatusError are the response status codes; StatusColumns
	// refuses a request frame that lacked a column the endpoint reads.
	StatusOK      = 0
	StatusError   = 1
	StatusColumns = 2

	// AllColumns is the column mask of a full counters.Num-wide row.
	AllColumns uint64 = 1<<counters.Num - 1

	headerLen = 6
)

// Structured protocol-error codes carried by MsgError frames.
const (
	ErrCodeBadMagic = 1 // peer is not speaking this protocol at all
	ErrCodeVersion  = 2 // peer does not speak Version
	ErrCodeBadFrame = 3 // recognized header but malformed or oversized frame
)

// HelloFlagRouter in a HelloAck marks the peer as a fleet router rather
// than a single-GPU daemon. HelloFlagTracing says the peer understands
// MsgDecideTraced/MsgDecisionsTraced; every peer that speaks Version
// does, and sets it.
const (
	HelloFlagRouter  = 1
	HelloFlagTracing = 2
)

// Hello is the result of negotiation: the protocol version, whether the
// peer is a router, whether it accepts traced frames, (for routers) its
// shard count, and the lineage generation of the model it is serving.
// Generation is 0 for an unversioned offline artifact.
type Hello struct {
	Version    int
	Router     bool
	Tracing    bool
	Shards     int
	Generation int
}

// HopTimings is the per-hop latency attribution a traced response
// carries back up the stack, each in microseconds (saturating at
// ~71 min, far beyond any serving timeout): time the frame's rows spent
// in an admission queue, lingering in the coalescer, in the dispatch
// round trip to a replica, and in model inference. A hop fills only the
// fields it knows — a daemon answering directly sets InferUs alone; the
// router adds queue/coalesce/dispatch on the way back; the client
// derives network time as total minus the attributed hops.
type HopTimings struct {
	QueueUs    uint32
	CoalesceUs uint32
	DispatchUs uint32
	InferUs    uint32
}

// Merge folds another attribution into h taking the per-field maximum —
// the aggregation a router uses when one client frame was answered by
// several replica batches.
func (h *HopTimings) Merge(o HopTimings) {
	if o.QueueUs > h.QueueUs {
		h.QueueUs = o.QueueUs
	}
	if o.CoalesceUs > h.CoalesceUs {
		h.CoalesceUs = o.CoalesceUs
	}
	if o.DispatchUs > h.DispatchUs {
		h.DispatchUs = o.DispatchUs
	}
	if o.InferUs > h.InferUs {
		h.InferUs = o.InferUs
	}
}

// DurUs32 converts a duration to saturating uint32 microseconds, the
// unit HopTimings carries on the wire.
func DurUs32(d time.Duration) uint32 {
	us := d.Microseconds()
	if us < 0 {
		return 0
	}
	if us > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(us)
}

// ProtoError is the decoded form of a MsgError frame — the structured
// refusal a server sends instead of silently dropping the connection.
type ProtoError struct {
	Code int
	Msg  string
}

func (e *ProtoError) Error() string {
	return fmt.Sprintf("serve: protocol error %d: %s", e.Code, e.Msg)
}

// Request is one decision request row.
type Request struct {
	// Preset is the performance-loss preset for this decision.
	Preset float64
	// Features is the full 47-counter vector of the finished epoch. The
	// codec moves only the columns of the frame's mask; a decoded row is
	// still counters.Num wide, with +0 in the columns that were not sent.
	Features []float64
	// GPU and Cluster identify the requesting cluster for fleet routing,
	// prediction feedback and the ledger. -1/-1 means no identity.
	GPU     int32
	Cluster int32
}

// Decision is one decision response row.
type Decision struct {
	// Level is the operating-point class the Decision-maker chose.
	Level int
	// Reason says which path produced the decision (model, or one of the
	// degradation paths).
	Reason provenance.Reason
	// PredInstr is the Calibrator's next-epoch instruction estimate.
	PredInstr float64
	// Shard is the fleet shard index that answered; -1 when no router was
	// involved or the row was shed locally.
	Shard int
	// Rerouted marks a row that was re-submitted to a different replica
	// after its home shard failed.
	Rerouted bool
}

func putHeader(buf []byte, msgType byte) {
	binary.BigEndian.PutUint32(buf, Magic)
	buf[4] = Version
	buf[5] = msgType
}

// parseHeader validates the magic and version and returns the frame's
// message type. Errors are *ProtoError so transports can answer them
// with a structured MsgError frame.
func parseHeader(payload []byte) (msgType byte, err error) {
	if len(payload) < headerLen {
		return 0, &ProtoError{Code: ErrCodeBadFrame, Msg: fmt.Sprintf("frame too short for header (%d bytes)", len(payload))}
	}
	if m := binary.BigEndian.Uint32(payload); m != Magic {
		return 0, &ProtoError{Code: ErrCodeBadMagic, Msg: fmt.Sprintf("bad magic %#x", m)}
	}
	if payload[4] != Version {
		return 0, &ProtoError{Code: ErrCodeVersion, Msg: fmt.Sprintf("unsupported protocol version %d (speak %d)", payload[4], Version)}
	}
	return payload[5], nil
}

// checkType is parseHeader for a decoder that wants one message type. A
// MsgError frame in its place surfaces as the *ProtoError it carries.
func checkType(payload []byte, want byte) error {
	t, err := parseHeader(payload)
	switch {
	case err != nil:
		return err
	case t == MsgError:
		return DecodeErrorFrame(payload)
	case t != want:
		return errWrongType(t, want)
	}
	return nil
}

func errWrongType(got, want byte) error {
	return fmt.Errorf("serve: unexpected message type %d, want %d", got, want)
}

// Section and row sizes of the request and response frames.
const (
	traceReqLen  = 8 + 8 + 1 // trace ID, parent span ID, flags
	traceRespLen = 8 + 4*4   // echoed trace ID, four hop timings
	rowsHeadLen  = 2 + 2 + 8 // row count, dimension, column mask
	reqRowFixed  = 4 + 4     // gpu + cluster, before the float64s
	respHeadLen  = 8 + 2     // column mask, row count
	respRow      = 1 + 1 + 1 + 2 + 8

	decFlagRerouted = 1
	shardNone       = 0xffff
)

// errColumns is what decodeResponse reports for a StatusColumns frame,
// alongside the mask the frame carries.
var errColumns = errors.New("serve: the peer reads a column the request did not carry")

// checkColumns refuses a mask that names no counter, or one that does not
// exist.
func checkColumns(columns uint64) error {
	if columns == 0 || columns > AllColumns {
		return fmt.Errorf("serve: column mask %#x names no counter or one past %d", columns, counters.Num-1)
	}
	return nil
}

// columnIndexes lists the counters a valid mask names, ascending, in buf.
func columnIndexes(columns uint64, buf *[counters.Num]uint8) []uint8 {
	n := 0
	for m := columns; m != 0; m &= m - 1 {
		buf[n] = uint8(bits.TrailingZeros64(m))
		n++
	}
	return buf[:n]
}

// appendRequest appends an encoded request payload (without the length
// prefix) for rows to dst, carrying the columns of the mask out of each
// full-width row: a MsgDecideTraced frame carrying *tc, or a
// MsgDecideKeyed frame when tc is nil.
func appendRequest(dst []byte, rows []Request, columns uint64, tc *telemetry.TraceContext) ([]byte, error) {
	if len(rows) == 0 || len(rows) > MaxBatch {
		return nil, fmt.Errorf("serve: batch of %d rows outside [1,%d]", len(rows), MaxBatch)
	}
	if n := len(rows[0].Features); n != counters.Num {
		return nil, fmt.Errorf("serve: feature dimension %d, want %d", n, counters.Num)
	}
	if err := checkColumns(columns); err != nil {
		return nil, err
	}
	var idxBuf [counters.Num]uint8
	idx := columnIndexes(columns, &idxBuf)
	msgType, p := byte(MsgDecideKeyed), headerLen
	if tc != nil {
		msgType, p = MsgDecideTraced, headerLen+traceReqLen
	}
	off := len(dst)
	dst = append(dst, make([]byte, p+rowsHeadLen+len(rows)*(reqRowFixed+(1+len(idx))*8))...)
	b := dst[off:]
	putHeader(b, msgType)
	if tc != nil {
		binary.BigEndian.PutUint64(b[6:], tc.TraceID)
		binary.BigEndian.PutUint64(b[14:], tc.SpanID)
		b[22] = tc.Flags
	}
	binary.BigEndian.PutUint16(b[p:], uint16(len(rows)))
	binary.BigEndian.PutUint16(b[p+2:], uint16(len(idx)))
	binary.BigEndian.PutUint64(b[p+4:], columns)
	b = b[p+rowsHeadLen:]
	for _, row := range rows {
		if len(row.Features) != counters.Num {
			return nil, fmt.Errorf("serve: ragged batch: row has %d features, want %d", len(row.Features), counters.Num)
		}
		binary.BigEndian.PutUint32(b, uint32(row.GPU))
		binary.BigEndian.PutUint32(b[4:], uint32(row.Cluster))
		binary.BigEndian.PutUint64(b[8:], math.Float64bits(row.Preset))
		b = b[reqRowFixed+8:]
		if columns == AllColumns {
			for _, f := range row.Features {
				binary.BigEndian.PutUint64(b, math.Float64bits(f))
				b = b[8:]
			}
			continue
		}
		for _, j := range idx {
			binary.BigEndian.PutUint64(b, math.Float64bits(row.Features[j]))
			b = b[8:]
		}
	}
	return dst, nil
}

// DecodeRequest parses a request payload of either kind and reports
// which it was and the column mask its rows came under; tc is zero for a
// MsgDecideKeyed frame. Every decoded row is counters.Num wide, +0 in
// the columns the frame did not carry. The returned rows reuse scratch
// (resized as needed) so a serving loop can decode without allocating;
// feature slices alias scratch's backing arrays.
func DecodeRequest(payload []byte, scratch []Request) (rows []Request, columns uint64, tc telemetry.TraceContext, traced bool, err error) {
	t, err := parseHeader(payload)
	if err != nil {
		return nil, 0, tc, false, err
	}
	body := payload[headerLen:]
	switch t {
	case MsgDecideKeyed:
	case MsgDecideTraced:
		if len(body) < traceReqLen {
			return nil, 0, tc, true, fmt.Errorf("serve: traced request frame too short (%d bytes)", len(payload))
		}
		tc.TraceID = binary.BigEndian.Uint64(body)
		tc.SpanID = binary.BigEndian.Uint64(body[8:])
		tc.Flags = body[16]
		traced, body = true, body[traceReqLen:]
	default:
		return nil, 0, tc, false, errWrongType(t, MsgDecideKeyed)
	}
	rows, columns, err = decodeRows(body, scratch)
	return rows, columns, tc, traced, err
}

// decodeRows parses a request frame's count, dimension, column mask and
// rows, refusing a frame whose three disagree with each other or with its
// length before anything is sized from them. It is a function of its own
// so the row loop keeps only what it needs live.
func decodeRows(body []byte, scratch []Request) ([]Request, uint64, error) {
	if len(body) < rowsHeadLen {
		return nil, 0, fmt.Errorf("serve: request frame too short for a row count (%d bytes)", len(body))
	}
	count := int(binary.BigEndian.Uint16(body))
	dim := int(binary.BigEndian.Uint16(body[2:]))
	columns := binary.BigEndian.Uint64(body[4:])
	if count == 0 || count > MaxBatch {
		return nil, 0, fmt.Errorf("serve: batch of %d rows outside [1,%d]", count, MaxBatch)
	}
	if err := checkColumns(columns); err != nil {
		return nil, 0, err
	}
	if dim != bits.OnesCount64(columns) {
		return nil, 0, fmt.Errorf("serve: feature dimension %d under a mask of %d columns", dim, bits.OnesCount64(columns))
	}
	if want := rowsHeadLen + count*(reqRowFixed+(1+dim)*8); len(body) != want {
		return nil, 0, fmt.Errorf("serve: request body is %d bytes, want %d for %d rows", len(body), want, count)
	}
	var idxBuf [counters.Num]uint8
	idx := columnIndexes(columns, &idxBuf)
	if cap(scratch) < count {
		scratch = append(scratch[:cap(scratch)], make([]Request, count-cap(scratch))...)
	}
	scratch = scratch[:count]
	body = body[rowsHeadLen:]
	for i := range scratch {
		r := &scratch[i]
		r.GPU = int32(binary.BigEndian.Uint32(body))
		r.Cluster = int32(binary.BigEndian.Uint32(body[4:]))
		r.Preset = math.Float64frombits(binary.BigEndian.Uint64(body[8:]))
		body = body[reqRowFixed+8:]
		if cap(r.Features) < counters.Num {
			r.Features = make([]float64, counters.Num)
		}
		feats := r.Features[:counters.Num]
		r.Features = feats
		if columns == AllColumns {
			for j := range feats {
				feats[j] = math.Float64frombits(binary.BigEndian.Uint64(body))
				body = body[8:]
			}
			continue
		}
		// Whatever the scratch row held under an earlier frame's mask goes.
		clear(feats)
		for _, j := range idx {
			feats[j] = math.Float64frombits(binary.BigEndian.Uint64(body))
			body = body[8:]
		}
	}
	return scratch, columns, nil
}

// AppendResponse appends an encoded response payload to dst, carrying the
// mask of the columns the answering endpoint reads and each decision's
// shard and rerouted flag: a MsgDecisionsTraced frame echoing traceID
// with this hop's latency attribution when traced, a MsgDecisionsKeyed
// frame (traceID and hops ignored) otherwise.
func AppendResponse(dst []byte, status byte, columns uint64, decs []Decision, traced bool, traceID uint64, hops HopTimings) ([]byte, error) {
	if len(decs) > MaxBatch {
		return nil, fmt.Errorf("serve: batch of %d rows exceeds %d", len(decs), MaxBatch)
	}
	if err := checkColumns(columns); err != nil {
		return nil, err
	}
	msgType, p := byte(MsgDecisionsKeyed), headerLen+1
	if traced {
		msgType, p = MsgDecisionsTraced, headerLen+1+traceRespLen
	}
	off := len(dst)
	dst = append(dst, make([]byte, p+respHeadLen+len(decs)*respRow)...)
	b := dst[off:]
	putHeader(b, msgType)
	b[6] = status
	if traced {
		binary.BigEndian.PutUint64(b[7:], traceID)
		binary.BigEndian.PutUint32(b[15:], hops.QueueUs)
		binary.BigEndian.PutUint32(b[19:], hops.CoalesceUs)
		binary.BigEndian.PutUint32(b[23:], hops.DispatchUs)
		binary.BigEndian.PutUint32(b[27:], hops.InferUs)
	}
	binary.BigEndian.PutUint64(b[p:], columns)
	binary.BigEndian.PutUint16(b[p+8:], uint16(len(decs)))
	b = b[p+respHeadLen:]
	for _, d := range decs {
		if d.Level < 0 || d.Level > 255 {
			return nil, fmt.Errorf("serve: level %d does not fit the wire format", d.Level)
		}
		row := b[:respRow]
		b = b[respRow:]
		row[0] = byte(d.Level)
		row[1] = byte(d.Reason)
		row[2] = 0
		if d.Rerouted {
			row[2] = decFlagRerouted
		}
		shard := uint16(shardNone)
		if d.Shard >= 0 && d.Shard < shardNone {
			shard = uint16(d.Shard)
		}
		binary.BigEndian.PutUint16(row[3:], shard)
		binary.BigEndian.PutUint64(row[5:], math.Float64bits(d.PredInstr))
	}
	return dst, nil
}

// decodeResponse parses a response payload of the wanted kind
// (MsgDecisionsKeyed or MsgDecisionsTraced), reusing scratch, and returns
// the mask of columns the peer reads. hops is zero for the keyed kind. A
// StatusColumns frame returns its mask with errColumns; a MsgError frame
// decodes into a *ProtoError.
func decodeResponse(payload []byte, scratch []Decision, wantType byte) (decs []Decision, hops HopTimings, columns uint64, err error) {
	if err := checkType(payload, wantType); err != nil {
		return nil, hops, 0, err
	}
	p := headerLen + 1
	if wantType == MsgDecisionsTraced {
		p += traceRespLen
	}
	if len(payload) < p+respHeadLen {
		return nil, hops, 0, fmt.Errorf("serve: response frame too short (%d bytes)", len(payload))
	}
	status := payload[6]
	if status != StatusOK && status != StatusColumns {
		return nil, hops, 0, fmt.Errorf("serve: server reported error status %d", status)
	}
	if wantType == MsgDecisionsTraced {
		hops.QueueUs = binary.BigEndian.Uint32(payload[15:])
		hops.CoalesceUs = binary.BigEndian.Uint32(payload[19:])
		hops.DispatchUs = binary.BigEndian.Uint32(payload[23:])
		hops.InferUs = binary.BigEndian.Uint32(payload[27:])
	}
	columns = binary.BigEndian.Uint64(payload[p:])
	if err := checkColumns(columns); err != nil {
		return nil, hops, 0, err
	}
	count := int(binary.BigEndian.Uint16(payload[p+8:]))
	if count > MaxBatch {
		return nil, hops, 0, fmt.Errorf("serve: response of %d rows exceeds %d", count, MaxBatch)
	}
	p += respHeadLen
	if want := p + count*respRow; len(payload) != want {
		return nil, hops, 0, fmt.Errorf("serve: response frame is %d bytes, want %d for %d rows", len(payload), want, count)
	}
	if status == StatusColumns {
		if count != 0 {
			return nil, hops, 0, fmt.Errorf("serve: column refusal carries %d rows", count)
		}
		return nil, hops, columns, errColumns
	}
	if cap(scratch) < count {
		scratch = make([]Decision, count)
	}
	scratch = scratch[:count]
	body := payload[p:]
	for i := range scratch {
		row, d := body[:respRow], &scratch[i]
		body = body[respRow:]
		d.Level = int(row[0])
		d.Reason = provenance.Reason(row[1])
		d.Rerouted = row[2]&decFlagRerouted != 0
		if d.Shard = int(binary.BigEndian.Uint16(row[3:])); d.Shard == shardNone {
			d.Shard = -1
		}
		d.PredInstr = math.Float64frombits(binary.BigEndian.Uint64(row[5:]))
	}
	return scratch, hops, columns, nil
}

// AppendKeyedRequestFrame appends an untraced request payload to dst. It
// and the seven typed entry points after it are the one codec with the
// kind fixed (each decoder refuses a frame of the other kind) and the
// mask out of sight — encoders write AllColumns, decoders take any mask
// and drop it — under the names the benchmark's codec rungs call.
func AppendKeyedRequestFrame(dst []byte, rows []Request) ([]byte, error) {
	return appendRequest(dst, rows, AllColumns, nil)
}

// AppendTracedRequestFrame appends a request payload carrying tc across
// the process boundary.
func AppendTracedRequestFrame(dst []byte, rows []Request, tc telemetry.TraceContext) ([]byte, error) {
	return appendRequest(dst, rows, AllColumns, &tc)
}

// DecodeKeyedRequestFrame parses an untraced request payload, reusing
// scratch like DecodeRequest.
func DecodeKeyedRequestFrame(payload []byte, scratch []Request) ([]Request, error) {
	rows, _, _, traced, err := DecodeRequest(payload, scratch)
	if err == nil && traced {
		return nil, errWrongType(MsgDecideTraced, MsgDecideKeyed)
	}
	return rows, err
}

// DecodeTracedRequestFrame parses a traced request payload, reusing
// scratch, and returns the carried trace context.
func DecodeTracedRequestFrame(payload []byte, scratch []Request) ([]Request, telemetry.TraceContext, error) {
	rows, _, tc, traced, err := DecodeRequest(payload, scratch)
	if err == nil && !traced {
		return nil, tc, errWrongType(MsgDecideKeyed, MsgDecideTraced)
	}
	return rows, tc, err
}

// AppendKeyedResponseFrame appends an untraced response payload to dst.
func AppendKeyedResponseFrame(dst []byte, status byte, decs []Decision) ([]byte, error) {
	return AppendResponse(dst, status, AllColumns, decs, false, 0, HopTimings{})
}

// AppendTracedResponseFrame appends a response payload echoing the trace
// ID and carrying this hop's latency attribution.
func AppendTracedResponseFrame(dst []byte, status byte, decs []Decision, traceID uint64, hops HopTimings) ([]byte, error) {
	return AppendResponse(dst, status, AllColumns, decs, true, traceID, hops)
}

// DecodeKeyedResponseFrame parses an untraced response payload, reusing
// scratch. A MsgError frame decodes into a *ProtoError.
func DecodeKeyedResponseFrame(payload []byte, scratch []Decision) ([]Decision, error) {
	decs, _, _, err := decodeResponse(payload, scratch, MsgDecisionsKeyed)
	return decs, err
}

// DecodeTracedResponseFrame parses a traced response payload, reusing
// scratch, and returns the hop attribution alongside the decisions.
func DecodeTracedResponseFrame(payload []byte, scratch []Decision) ([]Decision, HopTimings, error) {
	decs, hops, _, err := decodeResponse(payload, scratch, MsgDecisionsTraced)
	return decs, hops, err
}

// AppendHelloFrame appends a client hello offering the [min,max] version
// range.
func AppendHelloFrame(dst []byte, minVer, maxVer byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, headerLen+2)...)
	b := dst[off:]
	putHeader(b, MsgHello)
	b[6], b[7] = minVer, maxVer
	return dst
}

// DecodeHelloFrame parses a client hello into its offered version range.
func DecodeHelloFrame(payload []byte) (minVer, maxVer byte, err error) {
	if err := checkType(payload, MsgHello); err != nil {
		return 0, 0, err
	}
	if len(payload) != headerLen+2 {
		return 0, 0, fmt.Errorf("serve: hello frame is %d bytes, want %d", len(payload), headerLen+2)
	}
	return payload[6], payload[7], nil
}

// AppendHelloAckFrame appends the server's negotiation answer.
func AppendHelloAckFrame(dst []byte, h Hello) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, headerLen+8)...)
	b := dst[off:]
	putHeader(b, MsgHelloAck)
	b[6] = byte(h.Version)
	if h.Router {
		b[7] |= HelloFlagRouter
	}
	if h.Tracing {
		b[7] |= HelloFlagTracing
	}
	binary.BigEndian.PutUint16(b[8:], uint16(h.Shards))
	binary.BigEndian.PutUint32(b[10:], uint32(h.Generation))
	return dst
}

// DecodeHelloAckFrame parses a server hello-ack. A MsgError frame decodes
// into a *ProtoError, so a refused negotiation surfaces as a typed error.
func DecodeHelloAckFrame(payload []byte) (Hello, error) {
	if err := checkType(payload, MsgHelloAck); err != nil {
		return Hello{}, err
	}
	if len(payload) != headerLen+8 {
		return Hello{}, fmt.Errorf("serve: hello-ack frame is %d bytes, want %d", len(payload), headerLen+8)
	}
	return Hello{
		Version:    int(payload[6]),
		Router:     payload[7]&HelloFlagRouter != 0,
		Tracing:    payload[7]&HelloFlagTracing != 0,
		Shards:     int(binary.BigEndian.Uint16(payload[8:])),
		Generation: int(binary.BigEndian.Uint32(payload[10:])),
	}, nil
}

// AppendErrorFrame appends a structured protocol-error frame.
func AppendErrorFrame(dst []byte, code int, msg string) []byte {
	if len(msg) > 512 {
		msg = msg[:512]
	}
	off := len(dst)
	dst = append(dst, make([]byte, headerLen+4+len(msg))...)
	b := dst[off:]
	putHeader(b, MsgError)
	binary.BigEndian.PutUint16(b[6:], uint16(code))
	binary.BigEndian.PutUint16(b[8:], uint16(len(msg)))
	copy(b[10:], msg)
	return dst
}

// DecodeErrorFrame parses a MsgError payload into a *ProtoError.
func DecodeErrorFrame(payload []byte) error {
	if len(payload) < headerLen+4 {
		return fmt.Errorf("serve: error frame too short (%d bytes)", len(payload))
	}
	code := int(binary.BigEndian.Uint16(payload[6:]))
	n := int(binary.BigEndian.Uint16(payload[8:]))
	if headerLen+4+n > len(payload) {
		n = len(payload) - headerLen - 4
	}
	return &ProtoError{Code: code, Msg: string(payload[10 : 10+n])}
}

// ReadFrame reads one frame payload into buf (grown if needed) and
// returns it. Pass a *bufio.Reader to read more than one frame from a
// stream: any other reader is wrapped in one, which may read past the
// frame it returns. An oversized length prefix is refused without
// allocation, as a *ProtoError the transport answers before it drops the
// stream. The prefix is peeked in place for the same reason WriteFrame
// borrows the writer's buffer; a stream that ends inside it reports what
// io.ReadFull would: io.EOF before the first byte, io.ErrUnexpectedEOF
// after.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	prefix, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	size := binary.BigEndian.Uint32(prefix)
	if size > MaxFrame {
		return nil, &ProtoError{Code: ErrCodeBadFrame, Msg: fmt.Sprintf("frame of %d bytes exceeds limit %d", size, MaxFrame)}
	}
	br.Discard(4) // cannot fail: Peek just buffered these bytes
	if uint32(cap(buf)) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("serve: truncated frame: %w", err)
	}
	return buf, nil
}

// WriteFrame writes one length-prefixed frame payload and flushes it to
// the peer. A *bufio.Writer is used as it is; any other writer is wrapped
// in a fresh one. The prefix is built in the writer's own spare capacity:
// a local [4]byte handed to an io.Writer escapes to the heap, one
// allocation per frame.
func WriteFrame(w io.Writer, payload []byte) error {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriter(w)
	}
	prefix := binary.BigEndian.AppendUint32(bw.AvailableBuffer(), uint32(len(payload)))
	if _, err := bw.Write(prefix); err != nil {
		return err
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	return bw.Flush()
}

// Endpoint is what answers behind a binary-protocol front-end: the
// daemon's engine or the fleet router. A front-end owns the connection
// and its read/write loop; what a frame means is FrameScratch.Answer's
// business, and what the decision is, the Endpoint's.
type Endpoint interface {
	// HelloAck describes the endpoint for negotiation: role, shard count,
	// generation. Answer fills in Version and Tracing.
	HelloAck() Hello
	// DecideFrame answers one decoded request frame, appending one
	// Decision per row to decs. columns is the mask the rows came under
	// (what it lacks reads +0), tc the frame's trace context (zero for an
	// untraced frame) and received when the frame came off the wire; the
	// returned attribution rides back on a traced response. need is the
	// mask of columns the endpoint reads right now, and goes back on every
	// response. When columns does not cover it the endpoint decides
	// nothing — no row answered, observed or counted — and Answer replies
	// StatusColumns.
	DecideFrame(rows []Request, columns uint64, decs []Decision, tc telemetry.TraceContext, received time.Time) (out []Decision, hops HopTimings, need uint64)
}

// FrameScratch is the reusable state one connection needs to answer
// frames: decoded rows, decisions and the encoded reply. The zero value
// is ready; it is not safe for concurrent use.
type FrameScratch struct {
	rows []Request
	decs []Decision
	out  []byte
}

// Answer turns one received payload into the payload to send back: a
// hello into its ack, a request into ep's decisions in a response of the
// request's own kind — or, when the frame lacked a column ep reads, a
// StatusColumns response of that kind with no rows. Anything else, and
// any frame that does not parse, gets the MsgError frame as reply and the
// *ProtoError it carries as err: the caller sends reply and drops the
// connection, since the stream can no longer be trusted. For a served
// request rows and tc are its row count and trace context; a refused one
// served no rows. reply aliases fs until the next call.
func (fs *FrameScratch) Answer(frame []byte, ep Endpoint, received time.Time) (reply []byte, rows int, tc telemetry.TraceContext, err error) {
	if reply, rows, tc, err = fs.answer(frame, ep, received); err != nil {
		var pe *ProtoError
		if !errors.As(err, &pe) {
			pe = &ProtoError{Code: ErrCodeBadFrame, Msg: err.Error()}
		}
		reply, err = fs.Refuse(pe), pe
	}
	return reply, rows, tc, err
}

func (fs *FrameScratch) answer(frame []byte, ep Endpoint, received time.Time) (reply []byte, rows int, tc telemetry.TraceContext, err error) {
	msgType, err := parseHeader(frame)
	if err != nil {
		return nil, 0, tc, err
	}
	switch msgType {
	case MsgHello:
		minVer, maxVer, err := DecodeHelloFrame(frame)
		if err != nil {
			return nil, 0, tc, err
		}
		if minVer > Version || maxVer < Version {
			return nil, 0, tc, &ProtoError{Code: ErrCodeVersion,
				Msg: fmt.Sprintf("no common version: peer offers %d..%d, this side speaks %d", minVer, maxVer, Version)}
		}
		h := ep.HelloAck()
		h.Version, h.Tracing = Version, true
		fs.out = AppendHelloAckFrame(fs.out[:0], h)
		return fs.out, 0, tc, nil

	case MsgDecideKeyed, MsgDecideTraced:
		reqs, columns, tc, traced, err := DecodeRequest(frame, fs.rows)
		if err != nil {
			return nil, 0, tc, err
		}
		fs.rows = reqs
		decs, hops, need := ep.DecideFrame(reqs, columns, fs.decs[:0], tc, received)
		fs.decs = decs
		status := byte(StatusOK)
		if need&^columns != 0 {
			status, decs = StatusColumns, nil
		}
		out, err := AppendResponse(fs.out[:0], status, need, decs, traced, tc.TraceID, hops)
		if err != nil {
			return nil, 0, tc, err
		}
		fs.out = out
		return out, len(decs), tc, nil
	}
	return nil, 0, tc, &ProtoError{Code: ErrCodeBadFrame, Msg: fmt.Sprintf("unexpected message type %d", msgType)}
}

// Refuse returns the MsgError frame a front-end owes its peer before it
// drops the connection over a ReadFrame error: the refusal err carries
// (an oversized length prefix), or nil when err is no protocol violation
// — the peer hung up — and nothing is owed. The frame aliases fs until
// the next call.
func (fs *FrameScratch) Refuse(err error) []byte {
	var pe *ProtoError
	if !errors.As(err, &pe) {
		return nil
	}
	fs.out = AppendErrorFrame(fs.out[:0], pe.Code, pe.Msg)
	return fs.out
}
