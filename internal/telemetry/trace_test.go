package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"
)

// fakeClock advances a deterministic amount on every reading.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestTracerWritesReadableSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetClock(fakeClock(time.Millisecond))

	sp := tr.Start("train", "epochs", "50")
	sp.SetCat("pipeline")
	sp.SetTID(3)
	sp.End()
	tr.Start("eval").End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	spans, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	got := spans[0]
	if got.Name != "train" || got.Cat != "pipeline" || got.TID != 3 {
		t.Fatalf("span fields = %+v", got)
	}
	if got.Attrs["epochs"] != "50" {
		t.Fatalf("attrs = %v", got.Attrs)
	}
	// Clock steps once at Start and once at End → 1 ms duration.
	if got.DurUs != 1000 {
		t.Fatalf("dur = %g µs, want 1000", got.DurUs)
	}
	if spans[1].StartUs <= got.StartUs {
		t.Fatalf("spans out of order: %g then %g", got.StartUs, spans[1].StartUs)
	}
}

func TestNilTracerAndSpanAreSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("anything", "k", "v")
	sp.SetAttr("k2", "v2")
	sp.SetCat("c")
	sp.SetTID(1)
	sp.End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}

// chromeTestEvent is one traceEvents entry as a trace viewer reads it.
type chromeTestEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// decodeChrome decodes a Chrome trace-event file's traceEvents.
func decodeChrome(t *testing.T, r io.Reader) []chromeTestEvent {
	t.Helper()
	var ct struct {
		TraceEvents []chromeTestEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&ct); err != nil {
		t.Fatal(err)
	}
	return ct.TraceEvents
}

// TestChromeTraceRoundTripsFixture exports the checked-in span fixture to
// Chrome trace-event JSON and decodes it: every span field must arrive
// in its "X" event.
func TestChromeTraceRoundTripsFixture(t *testing.T) {
	f, err := os.Open("testdata/spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 4 {
		t.Fatalf("fixture has %d spans, want 4", len(spans))
	}

	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, spans); err != nil {
		t.Fatal(err)
	}
	evs := decodeChrome(t, &chrome)
	if len(evs) != len(spans) {
		t.Fatalf("%d events for %d spans", len(evs), len(spans))
	}
	for i, sp := range spans {
		want := chromeTestEvent{Name: sp.Name, Cat: sp.Cat, Ph: "X", Ts: sp.StartUs,
			Dur: sp.DurUs, PID: 1, TID: sp.TID, Args: sp.Attrs}
		if !reflect.DeepEqual(evs[i], want) {
			t.Fatalf("event %d = %+v, want %+v", i, evs[i], want)
		}
	}
}

func TestLoggerCountsAndQuiet(t *testing.T) {
	reg := NewRegistry()

	quiet := NewLogger(nil, reg)
	quiet.Logf("invisible %d", 1)
	quiet.Logf("invisible %d", 2)
	if got := reg.Counter("log_lines_total").Load(); got != 2 {
		t.Fatalf("quiet logger counted %d lines, want 2", got)
	}

	var buf bytes.Buffer
	loud := NewLogger(&buf, reg)
	loud.Logf("hello %s", "world")
	if buf.String() != "hello world\n" {
		t.Fatalf("output = %q", buf.String())
	}
	if got := reg.Counter("log_lines_total").Load(); got != 3 {
		t.Fatalf("lines counter = %d, want 3", got)
	}

	var nilLogger *Logger
	nilLogger.Logf("must not panic")
}
