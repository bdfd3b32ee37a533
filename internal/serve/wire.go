// Package serve turns the SSMDVFS model into a long-running decision
// service: the paper's ASIC engine produces one decision per cluster per
// 10 µs epoch, and this package is the software equivalent — a concurrent
// daemon that answers "which operating level next, and how many
// instructions do you expect?" over HTTP/JSON (debuggable) and a compact
// length-prefixed binary protocol over TCP (the hot path), with
// zero-downtime model hot-swap and latency/throughput metrics.
package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/infer"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// Wire protocol: every message is one length-prefixed frame,
//
//	uint32  payload length (big endian, <= MaxFrame)
//	payload
//
// and every payload starts with a fixed header,
//
//	uint32  magic   "SDVF"
//	uint8   version (2)
//	uint8   message type
//
// A decide request carries a batch of rows, each a performance-loss
// preset followed by the full 47-counter feature vector (feature
// selection happens inside the model, exactly as in the simulator loop):
//
//	uint16  row count (>= 1)
//	uint16  feature dimension (must equal counters.Num)
//	rows    count × (1+dim) float64, preset first
//
// A decide response carries one status byte, then per row the chosen
// level, the provenance reason that produced it, and the predicted
// next-epoch instruction count:
//
//	uint8   status (0 = OK; otherwise count is 0)
//	uint16  row count
//	rows    count × (uint8 level, uint8 reason, float64 predicted instructions)
//
// Version history: v1 response rows had no reason byte; v2 added it so
// clients can tell a model answer from a degraded one; v3 (current)
// added keyed multi-row frames for fleet routing — every request row
// carries its (gpu, cluster) identity so a router can coalesce rows from
// many clients into one frame per replica and demultiplex the answers —
// plus an explicit hello/ack version negotiation and a structured error
// message, so a mismatched peer gets a typed refusal instead of a hung
// read. A v3 server answers v2 frames with v2 responses, so old clients
// keep working unchanged.
const (
	Magic   = 0x53445646 // "SDVF"
	Version = 2          // the v2 frame version byte (unkeyed rows)

	// Version3 is the keyed-frame protocol version. VersionMin/VersionMax
	// bound what a server accepts and what Hello negotiation can agree on.
	Version3   = 3
	VersionMin = 2
	VersionMax = 3

	// MsgDecide and MsgDecisions are the v2 request/response types.
	MsgDecide    = 1
	MsgDecisions = 2

	// MsgDecideKeyed and MsgDecisionsKeyed are the v3 keyed batch
	// request/response types (rows carry gpu/cluster identity; response
	// rows carry the shard that answered and a rerouted flag).
	MsgDecideKeyed    = 3
	MsgDecisionsKeyed = 4

	// MsgHello and MsgHelloAck negotiate the protocol version on connect:
	// the client offers its [min,max] supported versions, the server
	// answers with the highest version both sides speak plus its role
	// (daemon or router) and shard count.
	MsgHello    = 5
	MsgHelloAck = 6

	// MsgError is a structured protocol error: a code and a human-readable
	// message, sent before the server drops a connection it cannot serve.
	MsgError = 7

	// MsgDecideTraced and MsgDecisionsTraced are the v3 traced batch
	// request/response types: a keyed frame plus distributed-trace
	// context on the request (trace ID, parent span ID, flags) and
	// per-hop latency attribution on the response (queue, coalesce,
	// dispatch, inference microseconds). Only sent to peers whose
	// hello-ack advertises HelloFlagTracing, so v2/v3 peers without
	// tracing support never see them.
	MsgDecideTraced    = 8
	MsgDecisionsTraced = 9

	// MaxFrame bounds a frame payload; anything larger is rejected before
	// allocation, so a corrupt length prefix cannot balloon memory.
	MaxFrame = 1 << 20

	// MaxBatch bounds the rows in one request frame.
	MaxBatch = 1024

	// StatusOK and StatusError are the response status codes.
	StatusOK    = 0
	StatusError = 1

	headerLen = 6
)

// Structured protocol-error codes carried by MsgError frames.
const (
	ErrCodeBadMagic = 1 // peer is not speaking this protocol at all
	ErrCodeVersion  = 2 // version outside [VersionMin, VersionMax]
	ErrCodeBadFrame = 3 // recognized header but malformed body
)

// HelloFlagRouter in a HelloAck marks the peer as a fleet router rather
// than a single-GPU daemon. HelloFlagTracing advertises that the peer
// understands MsgDecideTraced/MsgDecisionsTraced — a protocol
// capability, present whether or not the peer currently has a span
// tracer attached.
const (
	HelloFlagRouter  = 1
	HelloFlagTracing = 2
)

// Hello is the result of version negotiation: the agreed protocol
// version, whether the peer is a router, whether it accepts traced
// frames, (for routers) its shard count, the inference backend the
// peer serves with, and the lineage generation of the model it is
// serving. Backend is empty when the peer predates the backend byte (a
// legacy 4-byte ack body) or chose not to advertise one; Generation is 0
// when the peer predates the generation word or serves an unversioned
// offline artifact.
type Hello struct {
	Version    int
	Router     bool
	Tracing    bool
	Shards     int
	Backend    infer.Kind
	Generation int
}

// Backend codes carried in the hello-ack's trailing byte. Zero — also
// what a legacy peer's absent byte decodes as — means unspecified.
const (
	backendCodeNone    = 0
	backendCodeFloat64 = 1
	backendCodeInt8    = 2
)

func backendCode(k infer.Kind) byte {
	switch k {
	case infer.KindFloat64:
		return backendCodeFloat64
	case infer.KindInt8:
		return backendCodeInt8
	}
	return backendCodeNone
}

func backendFromCode(c byte) infer.Kind {
	switch c {
	case backendCodeFloat64:
		return infer.KindFloat64
	case backendCodeInt8:
		return infer.KindInt8
	}
	return ""
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
// refusal a v3 server sends instead of silently dropping the connection.
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
	// Features is the full 47-counter vector of the finished epoch.
	Features []float64
	// GPU and Cluster identify the requesting cluster for fleet routing
	// (v3 keyed frames). -1 means no identity (v2 rows, direct clients).
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
	// Shard is the fleet shard index that answered (v3 keyed responses);
	// -1 when no router was involved or the row was shed locally.
	Shard int
	// Rerouted marks a row that was re-submitted to a different replica
	// after its home shard failed (v3 keyed responses only).
	Rerouted bool
}

func putHeader(buf []byte, version, msgType byte) {
	binary.BigEndian.PutUint32(buf, Magic)
	buf[4] = version
	buf[5] = msgType
}

// parseHeader validates the magic and version range and returns the
// frame's version and message type. Errors are *ProtoError so transports
// can answer them with a structured MsgError frame.
func parseHeader(payload []byte) (version, msgType byte, err error) {
	if len(payload) < headerLen {
		return 0, 0, &ProtoError{Code: ErrCodeBadFrame, Msg: fmt.Sprintf("frame too short for header (%d bytes)", len(payload))}
	}
	if m := binary.BigEndian.Uint32(payload); m != Magic {
		return 0, 0, &ProtoError{Code: ErrCodeBadMagic, Msg: fmt.Sprintf("bad magic %#x", m)}
	}
	if payload[4] < VersionMin || payload[4] > VersionMax {
		return 0, 0, &ProtoError{Code: ErrCodeVersion, Msg: fmt.Sprintf("unsupported protocol version %d (speak %d..%d)", payload[4], VersionMin, VersionMax)}
	}
	return payload[4], payload[5], nil
}

func checkHeader(payload []byte, wantVersion, wantType byte) error {
	v, t, err := parseHeader(payload)
	if err != nil {
		return err
	}
	if t == MsgError {
		// Structured refusals surface as *ProtoError whatever version the
		// caller expected.
		return DecodeErrorFrame(payload)
	}
	if v != wantVersion {
		return fmt.Errorf("serve: unexpected protocol version %d, want %d", v, wantVersion)
	}
	if t != wantType {
		return fmt.Errorf("serve: unexpected message type %d, want %d", t, wantType)
	}
	return nil
}

// writeFrame writes the length prefix and payload. The prefix is built in
// the writer's own spare capacity: a local [4]byte handed to an io.Writer
// escapes to the heap, one allocation per frame.
func writeFrame(bw *bufio.Writer, payload []byte) error {
	prefix := binary.BigEndian.AppendUint32(bw.AvailableBuffer(), uint32(len(payload)))
	if _, err := bw.Write(prefix); err != nil {
		return err
	}
	_, err := bw.Write(payload)
	return err
}

// readFrame reads one frame payload into buf (grown if needed) and
// returns it. Oversized frames are rejected without allocation. The
// prefix is peeked in place for the same reason writeFrame borrows the
// writer's buffer; a stream that ends inside it reports what io.ReadFull
// would: io.EOF before the first byte, io.ErrUnexpectedEOF after.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	prefix, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	size := binary.BigEndian.Uint32(prefix)
	if size > MaxFrame {
		return nil, fmt.Errorf("serve: frame of %d bytes exceeds limit %d", size, MaxFrame)
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

// AppendRequestFrame appends an encoded request payload (without the
// length prefix) for the given rows to dst and returns it.
func AppendRequestFrame(dst []byte, rows []Request) ([]byte, error) {
	if len(rows) == 0 || len(rows) > MaxBatch {
		return nil, fmt.Errorf("serve: batch of %d rows outside [1,%d]", len(rows), MaxBatch)
	}
	dim := len(rows[0].Features)
	if dim != counters.Num {
		return nil, fmt.Errorf("serve: feature dimension %d, want %d", dim, counters.Num)
	}
	need := headerLen + 4 + len(rows)*(1+dim)*8
	off := len(dst)
	dst = append(dst, make([]byte, need)...)
	b := dst[off:]
	putHeader(b, Version, MsgDecide)
	binary.BigEndian.PutUint16(b[6:], uint16(len(rows)))
	binary.BigEndian.PutUint16(b[8:], uint16(dim))
	p := 10
	for _, row := range rows {
		if len(row.Features) != dim {
			return nil, fmt.Errorf("serve: ragged batch: row has %d features, want %d", len(row.Features), dim)
		}
		binary.BigEndian.PutUint64(b[p:], math.Float64bits(row.Preset))
		p += 8
		for _, f := range row.Features {
			binary.BigEndian.PutUint64(b[p:], math.Float64bits(f))
			p += 8
		}
	}
	return dst, nil
}

// DecodeRequestFrame parses a request payload. The returned rows reuse
// scratch (resized as needed) so a serving loop can decode without
// allocating; feature slices alias scratch's backing arrays.
func DecodeRequestFrame(payload []byte, scratch []Request) ([]Request, error) {
	if err := checkHeader(payload, Version, MsgDecide); err != nil {
		return nil, err
	}
	if len(payload) < headerLen+4 {
		return nil, fmt.Errorf("serve: request frame too short (%d bytes)", len(payload))
	}
	count := int(binary.BigEndian.Uint16(payload[6:]))
	dim := int(binary.BigEndian.Uint16(payload[8:]))
	if count == 0 || count > MaxBatch {
		return nil, fmt.Errorf("serve: batch of %d rows outside [1,%d]", count, MaxBatch)
	}
	if dim != counters.Num {
		return nil, fmt.Errorf("serve: feature dimension %d, want %d", dim, counters.Num)
	}
	want := headerLen + 4 + count*(1+dim)*8
	if len(payload) != want {
		return nil, fmt.Errorf("serve: request frame is %d bytes, want %d for %d rows", len(payload), want, count)
	}
	if cap(scratch) < count {
		scratch = append(scratch[:cap(scratch)], make([]Request, count-cap(scratch))...)
	}
	scratch = scratch[:count]
	p := headerLen + 4
	for i := range scratch {
		scratch[i].GPU, scratch[i].Cluster = -1, -1 // v2 rows carry no identity
		scratch[i].Preset = math.Float64frombits(binary.BigEndian.Uint64(payload[p:]))
		p += 8
		if cap(scratch[i].Features) < dim {
			scratch[i].Features = make([]float64, dim)
		}
		feats := scratch[i].Features[:dim]
		for j := range feats {
			feats[j] = math.Float64frombits(binary.BigEndian.Uint64(payload[p:]))
			p += 8
		}
		scratch[i].Features = feats
	}
	return scratch, nil
}

// AppendResponseFrame appends an encoded response payload to dst.
func AppendResponseFrame(dst []byte, status byte, decs []Decision) ([]byte, error) {
	if len(decs) > MaxBatch {
		return nil, fmt.Errorf("serve: batch of %d rows exceeds %d", len(decs), MaxBatch)
	}
	need := headerLen + 3 + len(decs)*10
	off := len(dst)
	dst = append(dst, make([]byte, need)...)
	b := dst[off:]
	putHeader(b, Version, MsgDecisions)
	b[6] = status
	binary.BigEndian.PutUint16(b[7:], uint16(len(decs)))
	p := 9
	for _, d := range decs {
		if d.Level < 0 || d.Level > 255 {
			return nil, fmt.Errorf("serve: level %d does not fit the wire format", d.Level)
		}
		b[p] = byte(d.Level)
		b[p+1] = byte(d.Reason)
		binary.BigEndian.PutUint64(b[p+2:], math.Float64bits(d.PredInstr))
		p += 10
	}
	return dst, nil
}

// DecodeResponseFrame parses a response payload, reusing scratch.
func DecodeResponseFrame(payload []byte, scratch []Decision) ([]Decision, error) {
	if err := checkHeader(payload, Version, MsgDecisions); err != nil {
		return nil, err
	}
	if len(payload) < headerLen+3 {
		return nil, fmt.Errorf("serve: response frame too short (%d bytes)", len(payload))
	}
	if payload[6] != StatusOK {
		return nil, fmt.Errorf("serve: server reported error status %d", payload[6])
	}
	count := int(binary.BigEndian.Uint16(payload[7:]))
	want := headerLen + 3 + count*10
	if len(payload) != want {
		return nil, fmt.Errorf("serve: response frame is %d bytes, want %d for %d rows", len(payload), want, count)
	}
	if cap(scratch) < count {
		scratch = make([]Decision, count)
	}
	scratch = scratch[:count]
	p := headerLen + 3
	for i := range scratch {
		scratch[i].Level = int(payload[p])
		scratch[i].Reason = provenance.Reason(payload[p+1])
		scratch[i].PredInstr = math.Float64frombits(binary.BigEndian.Uint64(payload[p+2:]))
		scratch[i].Shard, scratch[i].Rerouted = -1, false // v2 rows carry no shard
		p += 10
	}
	return scratch, nil
}

// A v3 keyed request frame (MsgDecideKeyed, version 3) carries, after
// the header,
//
//	uint16  row count (>= 1)
//	uint16  feature dimension (must equal counters.Num)
//	rows    count × (uint32 gpu, uint32 cluster, (1+dim) float64)
//
// and the matching keyed response (MsgDecisionsKeyed),
//
//	uint8   status
//	uint16  row count
//	rows    count × (uint8 level, uint8 reason, uint8 flags,
//	                 uint16 shard, float64 predicted instructions)
//
// where flags bit 0 marks a rerouted row and shard 0xffff means "no
// shard" (a daemon answering keyed frames directly, or a local shed).
const (
	keyedReqRowFixed = 4 + 4 // gpu + cluster, before the float64s
	keyedRespRow     = 1 + 1 + 1 + 2 + 8
	decFlagRerouted  = 1
	shardNone        = 0xffff
)

// AppendKeyedRequestFrame appends an encoded v3 keyed request payload to
// dst. Every row must carry a non-negative GPU and Cluster.
func AppendKeyedRequestFrame(dst []byte, rows []Request) ([]byte, error) {
	if len(rows) == 0 || len(rows) > MaxBatch {
		return nil, fmt.Errorf("serve: batch of %d rows outside [1,%d]", len(rows), MaxBatch)
	}
	dim := len(rows[0].Features)
	if dim != counters.Num {
		return nil, fmt.Errorf("serve: feature dimension %d, want %d", dim, counters.Num)
	}
	need := headerLen + 4 + len(rows)*(keyedReqRowFixed+(1+dim)*8)
	off := len(dst)
	dst = append(dst, make([]byte, need)...)
	b := dst[off:]
	putHeader(b, Version3, MsgDecideKeyed)
	binary.BigEndian.PutUint16(b[6:], uint16(len(rows)))
	binary.BigEndian.PutUint16(b[8:], uint16(dim))
	p := 10
	for _, row := range rows {
		if len(row.Features) != dim {
			return nil, fmt.Errorf("serve: ragged batch: row has %d features, want %d", len(row.Features), dim)
		}
		if row.GPU < 0 || row.Cluster < 0 {
			return nil, fmt.Errorf("serve: keyed row needs gpu/cluster >= 0, got (%d,%d)", row.GPU, row.Cluster)
		}
		binary.BigEndian.PutUint32(b[p:], uint32(row.GPU))
		binary.BigEndian.PutUint32(b[p+4:], uint32(row.Cluster))
		p += keyedReqRowFixed
		binary.BigEndian.PutUint64(b[p:], math.Float64bits(row.Preset))
		p += 8
		for _, f := range row.Features {
			binary.BigEndian.PutUint64(b[p:], math.Float64bits(f))
			p += 8
		}
	}
	return dst, nil
}

// DecodeKeyedRequestFrame parses a v3 keyed request payload, reusing
// scratch like DecodeRequestFrame.
func DecodeKeyedRequestFrame(payload []byte, scratch []Request) ([]Request, error) {
	if err := checkHeader(payload, Version3, MsgDecideKeyed); err != nil {
		return nil, err
	}
	if len(payload) < headerLen+4 {
		return nil, fmt.Errorf("serve: keyed request frame too short (%d bytes)", len(payload))
	}
	count := int(binary.BigEndian.Uint16(payload[6:]))
	dim := int(binary.BigEndian.Uint16(payload[8:]))
	if count == 0 || count > MaxBatch {
		return nil, fmt.Errorf("serve: batch of %d rows outside [1,%d]", count, MaxBatch)
	}
	if dim != counters.Num {
		return nil, fmt.Errorf("serve: feature dimension %d, want %d", dim, counters.Num)
	}
	want := headerLen + 4 + count*(keyedReqRowFixed+(1+dim)*8)
	if len(payload) != want {
		return nil, fmt.Errorf("serve: keyed request frame is %d bytes, want %d for %d rows", len(payload), want, count)
	}
	if cap(scratch) < count {
		scratch = append(scratch[:cap(scratch)], make([]Request, count-cap(scratch))...)
	}
	scratch = scratch[:count]
	p := headerLen + 4
	for i := range scratch {
		scratch[i].GPU = int32(binary.BigEndian.Uint32(payload[p:]))
		scratch[i].Cluster = int32(binary.BigEndian.Uint32(payload[p+4:]))
		p += keyedReqRowFixed
		scratch[i].Preset = math.Float64frombits(binary.BigEndian.Uint64(payload[p:]))
		p += 8
		if cap(scratch[i].Features) < dim {
			scratch[i].Features = make([]float64, dim)
		}
		feats := scratch[i].Features[:dim]
		for j := range feats {
			feats[j] = math.Float64frombits(binary.BigEndian.Uint64(payload[p:]))
			p += 8
		}
		scratch[i].Features = feats
	}
	return scratch, nil
}

// AppendKeyedResponseFrame appends an encoded v3 keyed response payload
// to dst, carrying each decision's shard and rerouted flag.
func AppendKeyedResponseFrame(dst []byte, status byte, decs []Decision) ([]byte, error) {
	if len(decs) > MaxBatch {
		return nil, fmt.Errorf("serve: batch of %d rows exceeds %d", len(decs), MaxBatch)
	}
	need := headerLen + 3 + len(decs)*keyedRespRow
	off := len(dst)
	dst = append(dst, make([]byte, need)...)
	b := dst[off:]
	putHeader(b, Version3, MsgDecisionsKeyed)
	b[6] = status
	binary.BigEndian.PutUint16(b[7:], uint16(len(decs)))
	p := 9
	for _, d := range decs {
		if d.Level < 0 || d.Level > 255 {
			return nil, fmt.Errorf("serve: level %d does not fit the wire format", d.Level)
		}
		b[p] = byte(d.Level)
		b[p+1] = byte(d.Reason)
		var flags byte
		if d.Rerouted {
			flags |= decFlagRerouted
		}
		b[p+2] = flags
		shard := uint16(shardNone)
		if d.Shard >= 0 && d.Shard < shardNone {
			shard = uint16(d.Shard)
		}
		binary.BigEndian.PutUint16(b[p+3:], shard)
		binary.BigEndian.PutUint64(b[p+5:], math.Float64bits(d.PredInstr))
		p += keyedRespRow
	}
	return dst, nil
}

// DecodeKeyedResponseFrame parses a v3 keyed response payload, reusing
// scratch. A MsgError frame decodes into a *ProtoError.
func DecodeKeyedResponseFrame(payload []byte, scratch []Decision) ([]Decision, error) {
	if err := checkHeader(payload, Version3, MsgDecisionsKeyed); err != nil {
		return nil, err
	}
	if len(payload) < headerLen+3 {
		return nil, fmt.Errorf("serve: keyed response frame too short (%d bytes)", len(payload))
	}
	if payload[6] != StatusOK {
		return nil, fmt.Errorf("serve: server reported error status %d", payload[6])
	}
	count := int(binary.BigEndian.Uint16(payload[7:]))
	want := headerLen + 3 + count*keyedRespRow
	if len(payload) != want {
		return nil, fmt.Errorf("serve: keyed response frame is %d bytes, want %d for %d rows", len(payload), want, count)
	}
	if cap(scratch) < count {
		scratch = make([]Decision, count)
	}
	scratch = scratch[:count]
	p := headerLen + 3
	for i := range scratch {
		scratch[i].Level = int(payload[p])
		scratch[i].Reason = provenance.Reason(payload[p+1])
		scratch[i].Rerouted = payload[p+2]&decFlagRerouted != 0
		if s := binary.BigEndian.Uint16(payload[p+3:]); s == shardNone {
			scratch[i].Shard = -1
		} else {
			scratch[i].Shard = int(s)
		}
		scratch[i].PredInstr = math.Float64frombits(binary.BigEndian.Uint64(payload[p+5:]))
		p += keyedRespRow
	}
	return scratch, nil
}

// A v3 traced request frame (MsgDecideTraced, version 3) is a keyed
// request with distributed-trace context between header and body,
//
//	uint64  trace ID
//	uint64  parent span ID
//	uint8   trace flags (telemetry.FlagSampled)
//	uint16  row count, uint16 dim, keyed rows (as MsgDecideKeyed)
//
// and the matching traced response (MsgDecisionsTraced) prepends the
// echoed trace ID and per-hop attribution to the keyed response body:
//
//	uint8   status
//	uint64  trace ID (echo)
//	uint32  queue µs, uint32 coalesce µs, uint32 dispatch µs, uint32 infer µs
//	uint16  row count, keyed rows (as MsgDecisionsKeyed)
const (
	tracedReqPrefix  = 8 + 8 + 1
	tracedRespPrefix = 8 + 4*4
)

// AppendTracedRequestFrame appends a v3 traced keyed request carrying tc
// across the process boundary.
func AppendTracedRequestFrame(dst []byte, rows []Request, tc telemetry.TraceContext) ([]byte, error) {
	if len(rows) == 0 || len(rows) > MaxBatch {
		return nil, fmt.Errorf("serve: batch of %d rows outside [1,%d]", len(rows), MaxBatch)
	}
	dim := len(rows[0].Features)
	if dim != counters.Num {
		return nil, fmt.Errorf("serve: feature dimension %d, want %d", dim, counters.Num)
	}
	need := headerLen + tracedReqPrefix + 4 + len(rows)*(keyedReqRowFixed+(1+dim)*8)
	off := len(dst)
	dst = append(dst, make([]byte, need)...)
	b := dst[off:]
	putHeader(b, Version3, MsgDecideTraced)
	binary.BigEndian.PutUint64(b[6:], tc.TraceID)
	binary.BigEndian.PutUint64(b[14:], tc.SpanID)
	b[22] = tc.Flags
	p := headerLen + tracedReqPrefix
	binary.BigEndian.PutUint16(b[p:], uint16(len(rows)))
	binary.BigEndian.PutUint16(b[p+2:], uint16(dim))
	p += 4
	for _, row := range rows {
		if len(row.Features) != dim {
			return nil, fmt.Errorf("serve: ragged batch: row has %d features, want %d", len(row.Features), dim)
		}
		if row.GPU < 0 || row.Cluster < 0 {
			return nil, fmt.Errorf("serve: keyed row needs gpu/cluster >= 0, got (%d,%d)", row.GPU, row.Cluster)
		}
		binary.BigEndian.PutUint32(b[p:], uint32(row.GPU))
		binary.BigEndian.PutUint32(b[p+4:], uint32(row.Cluster))
		p += keyedReqRowFixed
		binary.BigEndian.PutUint64(b[p:], math.Float64bits(row.Preset))
		p += 8
		for _, f := range row.Features {
			binary.BigEndian.PutUint64(b[p:], math.Float64bits(f))
			p += 8
		}
	}
	return dst, nil
}

// DecodeTracedRequestFrame parses a v3 traced keyed request, reusing
// scratch, and returns the carried trace context.
func DecodeTracedRequestFrame(payload []byte, scratch []Request) ([]Request, telemetry.TraceContext, error) {
	var tc telemetry.TraceContext
	if err := checkHeader(payload, Version3, MsgDecideTraced); err != nil {
		return nil, tc, err
	}
	if len(payload) < headerLen+tracedReqPrefix+4 {
		return nil, tc, fmt.Errorf("serve: traced request frame too short (%d bytes)", len(payload))
	}
	tc.TraceID = binary.BigEndian.Uint64(payload[6:])
	tc.SpanID = binary.BigEndian.Uint64(payload[14:])
	tc.Flags = payload[22]
	p := headerLen + tracedReqPrefix
	count := int(binary.BigEndian.Uint16(payload[p:]))
	dim := int(binary.BigEndian.Uint16(payload[p+2:]))
	if count == 0 || count > MaxBatch {
		return nil, tc, fmt.Errorf("serve: batch of %d rows outside [1,%d]", count, MaxBatch)
	}
	if dim != counters.Num {
		return nil, tc, fmt.Errorf("serve: feature dimension %d, want %d", dim, counters.Num)
	}
	want := headerLen + tracedReqPrefix + 4 + count*(keyedReqRowFixed+(1+dim)*8)
	if len(payload) != want {
		return nil, tc, fmt.Errorf("serve: traced request frame is %d bytes, want %d for %d rows", len(payload), want, count)
	}
	if cap(scratch) < count {
		scratch = append(scratch[:cap(scratch)], make([]Request, count-cap(scratch))...)
	}
	scratch = scratch[:count]
	p += 4
	for i := range scratch {
		scratch[i].GPU = int32(binary.BigEndian.Uint32(payload[p:]))
		scratch[i].Cluster = int32(binary.BigEndian.Uint32(payload[p+4:]))
		p += keyedReqRowFixed
		scratch[i].Preset = math.Float64frombits(binary.BigEndian.Uint64(payload[p:]))
		p += 8
		if cap(scratch[i].Features) < dim {
			scratch[i].Features = make([]float64, dim)
		}
		feats := scratch[i].Features[:dim]
		for j := range feats {
			feats[j] = math.Float64frombits(binary.BigEndian.Uint64(payload[p:]))
			p += 8
		}
		scratch[i].Features = feats
	}
	return scratch, tc, nil
}

// AppendTracedResponseFrame appends a v3 traced keyed response echoing
// the trace ID and carrying this hop's latency attribution.
func AppendTracedResponseFrame(dst []byte, status byte, decs []Decision, traceID uint64, hops HopTimings) ([]byte, error) {
	if len(decs) > MaxBatch {
		return nil, fmt.Errorf("serve: batch of %d rows exceeds %d", len(decs), MaxBatch)
	}
	need := headerLen + 1 + tracedRespPrefix + 2 + len(decs)*keyedRespRow
	off := len(dst)
	dst = append(dst, make([]byte, need)...)
	b := dst[off:]
	putHeader(b, Version3, MsgDecisionsTraced)
	b[6] = status
	binary.BigEndian.PutUint64(b[7:], traceID)
	binary.BigEndian.PutUint32(b[15:], hops.QueueUs)
	binary.BigEndian.PutUint32(b[19:], hops.CoalesceUs)
	binary.BigEndian.PutUint32(b[23:], hops.DispatchUs)
	binary.BigEndian.PutUint32(b[27:], hops.InferUs)
	p := headerLen + 1 + tracedRespPrefix
	binary.BigEndian.PutUint16(b[p:], uint16(len(decs)))
	p += 2
	for _, d := range decs {
		if d.Level < 0 || d.Level > 255 {
			return nil, fmt.Errorf("serve: level %d does not fit the wire format", d.Level)
		}
		b[p] = byte(d.Level)
		b[p+1] = byte(d.Reason)
		var flags byte
		if d.Rerouted {
			flags |= decFlagRerouted
		}
		b[p+2] = flags
		shard := uint16(shardNone)
		if d.Shard >= 0 && d.Shard < shardNone {
			shard = uint16(d.Shard)
		}
		binary.BigEndian.PutUint16(b[p+3:], shard)
		binary.BigEndian.PutUint64(b[p+5:], math.Float64bits(d.PredInstr))
		p += keyedRespRow
	}
	return dst, nil
}

// DecodeTracedResponseFrame parses a v3 traced keyed response, reusing
// scratch, and returns the hop attribution alongside the decisions.
func DecodeTracedResponseFrame(payload []byte, scratch []Decision) ([]Decision, HopTimings, error) {
	var hops HopTimings
	if err := checkHeader(payload, Version3, MsgDecisionsTraced); err != nil {
		return nil, hops, err
	}
	if len(payload) < headerLen+1+tracedRespPrefix+2 {
		return nil, hops, fmt.Errorf("serve: traced response frame too short (%d bytes)", len(payload))
	}
	if payload[6] != StatusOK {
		return nil, hops, fmt.Errorf("serve: server reported error status %d", payload[6])
	}
	hops.QueueUs = binary.BigEndian.Uint32(payload[15:])
	hops.CoalesceUs = binary.BigEndian.Uint32(payload[19:])
	hops.DispatchUs = binary.BigEndian.Uint32(payload[23:])
	hops.InferUs = binary.BigEndian.Uint32(payload[27:])
	p := headerLen + 1 + tracedRespPrefix
	count := int(binary.BigEndian.Uint16(payload[p:]))
	want := headerLen + 1 + tracedRespPrefix + 2 + count*keyedRespRow
	if len(payload) != want {
		return nil, hops, fmt.Errorf("serve: traced response frame is %d bytes, want %d for %d rows", len(payload), want, count)
	}
	if cap(scratch) < count {
		scratch = make([]Decision, count)
	}
	scratch = scratch[:count]
	p += 2
	for i := range scratch {
		scratch[i].Level = int(payload[p])
		scratch[i].Reason = provenance.Reason(payload[p+1])
		scratch[i].Rerouted = payload[p+2]&decFlagRerouted != 0
		if s := binary.BigEndian.Uint16(payload[p+3:]); s == shardNone {
			scratch[i].Shard = -1
		} else {
			scratch[i].Shard = int(s)
		}
		scratch[i].PredInstr = math.Float64frombits(binary.BigEndian.Uint64(payload[p+5:]))
		p += keyedRespRow
	}
	return scratch, hops, nil
}

// TracedResponseTraceID peeks the echoed trace ID of a traced response
// payload without decoding the rows.
func TracedResponseTraceID(payload []byte) uint64 {
	if len(payload) < headerLen+1+tracedRespPrefix {
		return 0
	}
	return binary.BigEndian.Uint64(payload[7:])
}

// AppendHelloFrame appends a client hello offering the [min,max] version
// range.
func AppendHelloFrame(dst []byte, minVer, maxVer byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, headerLen+2)...)
	b := dst[off:]
	putHeader(b, VersionMax, MsgHello)
	b[6], b[7] = minVer, maxVer
	return dst
}

// DecodeHelloFrame parses a client hello into its offered version range.
func DecodeHelloFrame(payload []byte) (minVer, maxVer byte, err error) {
	if _, t, err := parseHeader(payload); err != nil {
		return 0, 0, err
	} else if t != MsgHello {
		return 0, 0, fmt.Errorf("serve: unexpected message type %d, want %d", t, MsgHello)
	}
	if len(payload) != headerLen+2 {
		return 0, 0, fmt.Errorf("serve: hello frame is %d bytes, want %d", len(payload), headerLen+2)
	}
	return payload[6], payload[7], nil
}

// AppendHelloAckFrame appends the server's negotiation answer. The body
// has grown twice, always by appending: byte 10 advertises the serving
// backend, bytes 11-14 the serving model's lineage generation. Peers
// that predate an extension parse only the prefix they know, so every
// body length remains compatible in both directions.
func AppendHelloAckFrame(dst []byte, h Hello) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, headerLen+9)...)
	b := dst[off:]
	putHeader(b, VersionMax, MsgHelloAck)
	b[6] = byte(h.Version)
	if h.Router {
		b[7] |= HelloFlagRouter
	}
	if h.Tracing {
		b[7] |= HelloFlagTracing
	}
	binary.BigEndian.PutUint16(b[8:], uint16(h.Shards))
	b[10] = backendCode(h.Backend)
	binary.BigEndian.PutUint32(b[11:], uint32(h.Generation))
	return dst
}

// DecodeHelloAckFrame parses a server hello-ack. A MsgError frame decodes
// into a *ProtoError, so a refused negotiation surfaces as a typed error.
func DecodeHelloAckFrame(payload []byte) (Hello, error) {
	_, t, err := parseHeader(payload)
	if err != nil {
		return Hello{}, err
	}
	if t == MsgError {
		return Hello{}, DecodeErrorFrame(payload)
	}
	if t != MsgHelloAck {
		return Hello{}, fmt.Errorf("serve: unexpected message type %d, want %d", t, MsgHelloAck)
	}
	// headerLen+4 is the legacy body (no backend byte), headerLen+5 adds
	// the backend advertisement, headerLen+9 the model generation. All
	// stay accepted so old and new peers interoperate in either direction.
	switch len(payload) {
	case headerLen + 4, headerLen + 5, headerLen + 9:
	default:
		return Hello{}, fmt.Errorf("serve: hello-ack frame is %d bytes, want %d, %d or %d",
			len(payload), headerLen+4, headerLen+5, headerLen+9)
	}
	h := Hello{
		Version: int(payload[6]),
		Router:  payload[7]&HelloFlagRouter != 0,
		Tracing: payload[7]&HelloFlagTracing != 0,
		Shards:  int(binary.BigEndian.Uint16(payload[8:])),
	}
	if len(payload) >= headerLen+5 {
		h.Backend = backendFromCode(payload[10])
	}
	if len(payload) == headerLen+9 {
		h.Generation = int(binary.BigEndian.Uint32(payload[11:]))
	}
	return h, nil
}

// AppendErrorFrame appends a structured protocol-error frame.
func AppendErrorFrame(dst []byte, code int, msg string) []byte {
	if len(msg) > 512 {
		msg = msg[:512]
	}
	off := len(dst)
	dst = append(dst, make([]byte, headerLen+4+len(msg))...)
	b := dst[off:]
	putHeader(b, VersionMax, MsgError)
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

// ReadFrame and WriteFrame expose the raw frame transport for other
// packages that speak this protocol (the fleet router's front-end). Pass
// a *bufio.Reader to read more than one frame from a stream: any other
// reader is wrapped in one, which may read past the frame it returns.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return readFrame(br, buf)
}

// WriteFrame writes one length-prefixed frame payload. A *bufio.Writer is
// left unflushed, so frames can be batched; any other writer gets the
// whole frame before WriteFrame returns.
func WriteFrame(w io.Writer, payload []byte) error {
	if bw, ok := w.(*bufio.Writer); ok {
		return writeFrame(bw, payload)
	}
	bw := bufio.NewWriter(w)
	if err := writeFrame(bw, payload); err != nil {
		return err
	}
	return bw.Flush()
}

// ParseHeader validates a payload's magic and version range and returns
// its version and message type — the dispatch step any transport speaking
// this protocol performs first. Errors are *ProtoError, ready to answer
// with AppendErrorFrame.
func ParseHeader(payload []byte) (version, msgType byte, err error) {
	return parseHeader(payload)
}

// WriteRequest encodes rows as one frame on w.
func WriteRequest(w *bufio.Writer, rows []Request) error {
	payload, err := AppendRequestFrame(nil, rows)
	if err != nil {
		return err
	}
	if err := writeFrame(w, payload); err != nil {
		return err
	}
	return w.Flush()
}

// ReadResponse reads one response frame from r.
func ReadResponse(r io.Reader) ([]Decision, error) {
	payload, err := ReadFrame(r, nil)
	if err != nil {
		return nil, err
	}
	return DecodeResponseFrame(payload, nil)
}
