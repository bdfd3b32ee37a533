package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ssmdvfs/internal/atomicfile"
)

// SpanRecord is one completed span as serialized to JSONL: a named,
// attributed interval on the tracer's clock (microseconds since the
// tracer was created). TraceID/SpanID/ParentID (fixed-width hex, empty
// when the span is not part of a distributed trace) link spans across
// process boundaries: every span of one decision shares TraceID, and
// ParentID points at the span that propagated the context to this hop.
type SpanRecord struct {
	Name     string            `json:"name"`
	Cat      string            `json:"cat,omitempty"`
	TID      int               `json:"tid,omitempty"`
	TraceID  string            `json:"trace_id,omitempty"`
	SpanID   string            `json:"span_id,omitempty"`
	ParentID string            `json:"parent_id,omitempty"`
	StartUs  float64           `json:"start_us"`
	DurUs    float64           `json:"dur_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Tracer records spans as JSON-lines to a writer. A nil *Tracer is a
// valid no-op tracer, so instrumented code never needs nil checks:
//
//	sp := tracer.Start("train", "epochs", "50")
//	defer sp.End()
//
// Writes are serialized internally; the first write error sticks and is
// reported by Err.
type Tracer struct {
	mu    sync.Mutex
	w     *bufio.Writer
	enc   *json.Encoder
	epoch time.Time
	now   func() time.Time
	err   error

	spanSeed uint64
	spanSeq  atomic.Uint64
}

// NewTracer returns a tracer writing JSONL spans to w.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	return &Tracer{
		w: bw, enc: json.NewEncoder(bw),
		epoch: time.Now(), now: time.Now,
		spanSeed: newSpanIDSeed(),
	}
}

// SetClock overrides the tracer's time source (tests); epoch is re-read
// from the new clock.
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
	t.epoch = now()
}

// Span is an in-flight interval; call End exactly once. A nil *Span
// (from a nil tracer, or an unsampled trace) ignores all calls.
type Span struct {
	t       *Tracer
	name    string
	cat     string
	tid     int
	start   time.Time
	attrs   map[string]string
	traceID uint64
	spanID  uint64
	parent  uint64
}

// Start opens a span. attrs are key/value pairs attached to the record.
func (t *Tracer) Start(name string, attrs ...string) *Span {
	if t == nil {
		return nil
	}
	return t.startAt(name, t.clock(), TraceContext{}, attrs)
}

// StartSpan opens a span belonging to a distributed trace: the span
// carries tc's trace ID, its parent is tc's span ID, and its own span
// ID (see Context) is minted from the tracer's seed. Returns nil — a
// free no-op span — when the tracer is nil or the trace is unsampled,
// so the disabled path stays allocation-free.
func (t *Tracer) StartSpan(tc TraceContext, name string, attrs ...string) *Span {
	if t == nil || !tc.Sampled() {
		return nil
	}
	return t.startAt(name, t.clock(), tc, attrs)
}

// StartSpanAt is StartSpan with a caller-supplied start time.
func (t *Tracer) StartSpanAt(tc TraceContext, name string, start time.Time, attrs ...string) *Span {
	if t == nil || !tc.Sampled() {
		return nil
	}
	return t.startAt(name, start, tc, attrs)
}

func (t *Tracer) startAt(name string, start time.Time, tc TraceContext, attrs []string) *Span {
	sp := &Span{t: t, name: name, start: start}
	if tc.Valid() {
		sp.traceID = tc.TraceID
		sp.parent = tc.SpanID
		sp.spanID = mix64(t.spanSeed ^ tc.TraceID ^ (t.spanSeq.Add(1) << 1))
		if sp.spanID == 0 {
			sp.spanID = 1
		}
	}
	for i := 0; i+1 < len(attrs); i += 2 {
		sp.SetAttr(attrs[i], attrs[i+1])
	}
	return sp
}

func (t *Tracer) clock() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.now()
}

// Context returns the propagation context rooted at this span: same
// trace, this span as the parent of whatever the context is handed to.
// A nil or trace-less span returns the zero context.
func (sp *Span) Context() TraceContext {
	if sp == nil || sp.traceID == 0 {
		return TraceContext{}
	}
	return TraceContext{TraceID: sp.traceID, SpanID: sp.spanID, Flags: FlagSampled}
}

// SetAttr attaches or replaces one attribute.
func (sp *Span) SetAttr(k, v string) {
	if sp == nil {
		return
	}
	if sp.attrs == nil {
		sp.attrs = make(map[string]string)
	}
	sp.attrs[k] = v
}

// SetCat sets the span's category (Chrome trace "cat" field).
func (sp *Span) SetCat(cat string) {
	if sp != nil {
		sp.cat = cat
	}
}

// SetTID tags the span with a logical track id (Chrome trace "tid").
func (sp *Span) SetTID(tid int) {
	if sp != nil {
		sp.tid = tid
	}
}

// End closes the span and writes its record.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.endAt(sp.t.clock())
}

// EndAt closes the span at a caller-supplied end time — the pair of
// StartAt for retrospective spans.
func (sp *Span) EndAt(end time.Time) {
	if sp == nil {
		return
	}
	sp.endAt(end)
}

func (sp *Span) endAt(end time.Time) {
	t := sp.t
	rec := SpanRecord{
		Name:  sp.name,
		Cat:   sp.cat,
		TID:   sp.tid,
		DurUs: float64(end.Sub(sp.start)) / float64(time.Microsecond),
		Attrs: sp.attrs,
	}
	if sp.traceID != 0 {
		rec.TraceID = FormatTraceID(sp.traceID)
		rec.SpanID = FormatTraceID(sp.spanID)
		if sp.parent != 0 {
			rec.ParentID = FormatTraceID(sp.parent)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec.StartUs = float64(sp.start.Sub(t.epoch)) / float64(time.Microsecond)
	if t.err == nil {
		t.err = t.enc.Encode(rec)
	}
}

// Flush drains buffered records to the underlying writer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	t.err = t.w.Flush()
	return t.err
}

// ReadSpans parses a JSONL span stream written by a Tracer.
func ReadSpans(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	dec := json.NewDecoder(r)
	for {
		var rec SpanRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: span %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// ReadSpansFile reads a JSONL span capture from disk.
func ReadSpansFile(path string) ([]SpanRecord, error) {
	return atomicfile.ReadWith(path, ReadSpans)
}

// chromeEvent is one entry of the Chrome trace-event format ("X" =
// complete event, "M" = metadata), viewable in chrome://tracing and
// Perfetto. Trace-linkage IDs travel in Args so the viewer shows them
// on click.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TsUs float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func spanToChrome(sp SpanRecord, pid int) chromeEvent {
	args := sp.Attrs
	if sp.TraceID != "" {
		args = make(map[string]string, len(sp.Attrs)+3)
		for k, v := range sp.Attrs {
			args[k] = v
		}
		args["trace_id"] = sp.TraceID
		args["span_id"] = sp.SpanID
		if sp.ParentID != "" {
			args["parent_id"] = sp.ParentID
		}
	}
	return chromeEvent{
		Name: sp.Name,
		Cat:  sp.Cat,
		Ph:   "X",
		TsUs: sp.StartUs,
		Dur:  sp.DurUs,
		PID:  pid,
		TID:  sp.TID,
		Args: args,
	}
}

// WriteChromeTrace exports spans in the Chrome trace-event JSON format.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	return WriteChromeTraceMulti(w, [][]SpanRecord{spans}, nil)
}

// WriteChromeTraceMulti exports several span captures — typically one
// per process of a distributed serving stack — into one Chrome trace.
// Each input group gets its own pid (1-based input order) plus a
// process_name metadata event naming it, so router and replica spans
// land on separate tracks instead of overlapping. names labels the
// groups; missing names fall back to "process N".
func WriteChromeTraceMulti(w io.Writer, groups [][]SpanRecord, names []string) error {
	var ct chromeTrace
	for i, spans := range groups {
		pid := i + 1
		if len(groups) > 1 || len(names) > i {
			name := fmt.Sprintf("process %d", pid)
			if i < len(names) && names[i] != "" {
				name = filepath.Base(names[i])
			}
			ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]string{"name": name},
			})
		}
		for _, sp := range spans {
			ct.TraceEvents = append(ct.TraceEvents, spanToChrome(sp, pid))
		}
	}
	if ct.TraceEvents == nil {
		ct.TraceEvents = []chromeEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ct)
}
