package telemetry

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSamplerDeterministicAndHeadBased(t *testing.T) {
	a := NewSampler(4, 42)
	b := NewSampler(4, 42)
	var sampled int
	for i := 0; i < 16; i++ {
		ca, cb := a.Next(), b.Next()
		if ca != cb {
			t.Fatalf("request %d: samplers diverged: %+v vs %+v", i, ca, cb)
		}
		if ca.Valid() != ca.Sampled() {
			t.Fatalf("request %d: root context must be sampled iff valid: %+v", i, ca)
		}
		if ca.Sampled() {
			sampled++
			if ca.SpanID != 0 {
				t.Fatalf("root context has parent span %x", ca.SpanID)
			}
		}
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 with everyN=4", sampled)
	}
	other := NewSampler(4, 43).Next()
	first := NewSampler(4, 42).Next()
	if other.TraceID == first.TraceID {
		t.Fatal("different seeds produced the same trace ID")
	}
}

func TestSamplerNilAndDisabled(t *testing.T) {
	if s := NewSampler(0, 1); s != nil {
		t.Fatal("everyN=0 should disable sampling")
	}
	var s *Sampler
	if tc := s.Next(); tc.Valid() || tc.Sampled() {
		t.Fatalf("nil sampler produced %+v", tc)
	}
}

func TestTraceIDFormatRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 0xdeadbeef, ^uint64(0)} {
		s := FormatTraceID(id)
		if len(s) != 16 {
			t.Fatalf("FormatTraceID(%x) = %q, want 16 hex chars", id, s)
		}
		back, err := ParseTraceID(s)
		if err != nil || back != id {
			t.Fatalf("round trip %x → %q → %x, err %v", id, s, back, err)
		}
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Fatal("ParseTraceID accepted garbage")
	}
}

func TestSpanLinkingAcrossTracers(t *testing.T) {
	// Two tracers stand in for two processes of one serving stack: the
	// root span is started on tracer A, its Context crosses the "wire",
	// and the child span lands on tracer B with the same trace ID and
	// the root as parent.
	var bufA, bufB bytes.Buffer
	trA, trB := NewTracer(&bufA), NewTracer(&bufB)
	trA.SetClock(fakeClock(time.Millisecond))
	trB.SetClock(fakeClock(time.Millisecond))

	tc := NewSampler(1, 7).Next()
	root := trA.StartSpan(tc, "client.send")
	child := trB.StartSpan(root.Context(), "engine.decode")
	child.End()
	root.End()
	trA.Flush()
	trB.Flush()

	rootRec := mustReadOneSpan(t, &bufA)
	childRec := mustReadOneSpan(t, &bufB)
	want := FormatTraceID(tc.TraceID)
	if rootRec.TraceID != want || childRec.TraceID != want {
		t.Fatalf("trace IDs: root %q child %q want %q", rootRec.TraceID, childRec.TraceID, want)
	}
	if rootRec.SpanID == "" || childRec.SpanID == "" || rootRec.SpanID == childRec.SpanID {
		t.Fatalf("span IDs: root %q child %q", rootRec.SpanID, childRec.SpanID)
	}
	if childRec.ParentID != rootRec.SpanID {
		t.Fatalf("child parent %q, want root span %q", childRec.ParentID, rootRec.SpanID)
	}
	if rootRec.ParentID != "" {
		t.Fatalf("root has parent %q", rootRec.ParentID)
	}
}

func mustReadOneSpan(t *testing.T, buf *bytes.Buffer) SpanRecord {
	t.Helper()
	spans, err := ReadSpans(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	return spans[0]
}

func TestUnsampledStartSpanIsNil(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	if sp := tr.StartSpan(TraceContext{}, "x"); sp != nil {
		t.Fatal("unsampled context produced a live span")
	}
	unsampled := TraceContext{TraceID: 9} // valid but not sampled
	if sp := tr.StartSpan(unsampled, "x"); sp != nil {
		t.Fatal("sampled-bit-clear context produced a live span")
	}
	tr.Flush()
	if buf.Len() != 0 {
		t.Fatalf("unsampled spans wrote %q", buf.String())
	}
}

func TestStartAtEndAtRetrospective(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	base := time.Unix(0, 0)
	tr.SetClock(func() time.Time { return base })

	tc := TraceContext{TraceID: 7, SpanID: 1, Flags: FlagSampled}
	sp := tr.StartSpanAt(tc, "router.queue", base.Add(10*time.Microsecond))
	sp.EndAt(base.Add(35 * time.Microsecond))
	tr.Flush()

	rec := mustReadOneSpan(t, &buf)
	if rec.StartUs != 10 || rec.DurUs != 25 {
		t.Fatalf("retrospective span = start %g dur %g, want 10/25", rec.StartUs, rec.DurUs)
	}
}

func TestChromeTraceMultiAssignsDistinctPIDs(t *testing.T) {
	groups := [][]SpanRecord{
		{{Name: "router.dispatch", StartUs: 1, DurUs: 2, TraceID: "00000000000000aa", SpanID: "00000000000000bb"}},
		{{Name: "engine.inference", StartUs: 2, DurUs: 1}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceMulti(&buf, groups, []string{"router.spans.jsonl", "replica1.spans.jsonl"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"name": "process_name"`, `"router.spans.jsonl"`, `"replica1.spans.jsonl"`,
		`"pid": 1`, `"pid": 2`, `"trace_id": "00000000000000aa"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged chrome trace missing %s:\n%s", want, out)
		}
	}
	// The two X events carry their group's pid; the router span's trace
	// linkage rides in its args.
	var xs []chromeTestEvent
	for _, ev := range decodeChrome(t, strings.NewReader(out)) {
		if ev.Ph == "X" {
			xs = append(xs, ev)
		}
	}
	if len(xs) != 2 || xs[0].PID != 1 || xs[1].PID != 2 {
		t.Fatalf("X events = %+v, want one in pid 1 and one in pid 2", xs)
	}
	if want := map[string]string{"trace_id": "00000000000000aa", "span_id": "00000000000000bb"}; !reflect.DeepEqual(xs[0].Args, want) {
		t.Fatalf("router span args = %v, want %v", xs[0].Args, want)
	}
}

// TestTracerConcurrentUse exercises Start/StartSpan/SetAttr/End from many
// goroutines under -race: the JSONL output must stay well-formed and
// complete.
func TestTracerConcurrentUse(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	sampler := NewSampler(2, 99)

	const goroutines = 16
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var sp *Span
				if tc := sampler.Next(); tc.Sampled() {
					sp = tr.StartSpan(tc, "traced")
				} else {
					sp = tr.Start("plain")
				}
				sp.SetAttr("g", fmt.Sprint(g))
				sp.SetAttr("i", fmt.Sprint(i))
				sp.SetTID(g)
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != goroutines*perG {
		t.Fatalf("got %d spans, want %d", len(spans), goroutines*perG)
	}
	ids := make(map[string]bool)
	for _, sp := range spans {
		if sp.Name == "traced" {
			if sp.TraceID == "" || sp.SpanID == "" {
				t.Fatalf("traced span missing linkage: %+v", sp)
			}
			if ids[sp.SpanID] {
				t.Fatalf("span ID %s minted twice", sp.SpanID)
			}
			ids[sp.SpanID] = true
		}
	}
}

// TestDisabledTracingAllocatesNothing pins the zero-alloc guarantee for
// the tracing-disabled hot path: nil tracers, unsampled contexts, and
// unsampled sampler draws must not allocate.
func TestDisabledTracingAllocatesNothing(t *testing.T) {
	var nilTr *Tracer
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	sampler := NewSampler(1<<30, 1) // first draw sampled; burn it.
	sampler.Next()

	cases := []struct {
		name string
		fn   func()
	}{
		{"nil tracer Start/End", func() {
			sp := nilTr.Start("x")
			sp.SetAttr("k", "v")
			sp.End()
		}},
		{"unsampled StartSpan", func() {
			sp := tr.StartSpan(TraceContext{}, "x")
			sp.SetAttr("k", "v")
			sp.End()
		}},
		{"nil sampler Next", func() {
			var s *Sampler
			_ = s.Next()
		}},
		{"unsampled sampler Next", func() {
			_ = sampler.Next()
		}},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram(8)
	h.ObserveExemplar(3, 0) // unsampled: no exemplar
	if ex := h.Exemplars(); ex != nil {
		t.Fatalf("unsampled observation left exemplars %v", ex)
	}
	h.ObserveExemplar(3, 0xabc)
	h.ObserveExemplar(200, 0xdef)
	ex := h.Exemplars()
	if ex == nil {
		t.Fatal("no exemplars recorded")
	}
	b1 := BucketIndex(3, 8)
	b2 := BucketIndex(200, 8)
	if ex[b1] == nil || ex[b1].TraceID != FormatTraceID(0xabc) || ex[b1].Value != 3 {
		t.Fatalf("bucket %d exemplar = %+v", b1, ex[b1])
	}
	if ex[b2] == nil || ex[b2].TraceID != FormatTraceID(0xdef) {
		t.Fatalf("bucket %d exemplar = %+v", b2, ex[b2])
	}

	if allocs := testing.AllocsPerRun(200, func() { h.ObserveExemplar(5, 0) }); allocs != 0 {
		t.Errorf("unsampled ObserveExemplar: %v allocs/op, want 0", allocs)
	}
}

func TestPromExemplarExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.HistogramBuckets("demo_latency_us", 8)
	h.ObserveExemplar(100, 0xbeef)
	h.Observe(3)

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := fmt.Sprintf(`# {trace_id="%s"} 100`, FormatTraceID(0xbeef))
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing exemplar %q:\n%s", want, out)
	}
	if problems := LintProm(strings.NewReader(out)); problems != nil {
		t.Fatalf("own exposition fails lint: %v", problems)
	}
}

func TestSLOBurnRate(t *testing.T) {
	reg := NewRegistry()
	slo := NewSLO(reg, "latency", 0.01, time.Minute)
	now := time.Unix(0, 0)
	slo.SetClock(func() time.Time { return now })

	slo.ObserveN(99, 1) // 1% bad = exactly at budget
	if burn := reg.Gauge("slo_burn_rate", "slo", "latency").Value(); burn != 1.0 {
		t.Fatalf("burn rate = %g, want 1.0", burn)
	}
	slo.ObserveN(0, 100) // now 101 bad / 200 total
	if ratio := reg.Gauge("slo_bad_ratio", "slo", "latency").Value(); ratio != 101.0/200.0 {
		t.Fatalf("bad ratio = %g, want %g", ratio, 101.0/200.0)
	}

	// Rolling: after two half-window advances with clean traffic, the
	// old bad observations age out entirely.
	now = now.Add(31 * time.Second)
	slo.ObserveN(100, 0)
	now = now.Add(31 * time.Second)
	slo.ObserveN(100, 0)
	if ratio := reg.Gauge("slo_bad_ratio", "slo", "latency").Value(); ratio != 0 {
		t.Fatalf("bad ratio after rollover = %g, want 0", ratio)
	}

	var nilSLO *SLO
	nilSLO.Observe(true)
	nilSLO.ObserveN(1, 1)
	if s := NewSLO(nil, "x", 0.1, time.Minute); s != nil {
		t.Fatal("nil registry should yield nil SLO")
	}
}

// TestSLOIdleWindowForgetsOldBurst: after an idle stretch longer than the
// window, the first observation reads only itself, not the burst that
// came before the idle time.
func TestSLOIdleWindowForgetsOldBurst(t *testing.T) {
	reg := NewRegistry()
	slo := NewSLO(reg, "latency", 0.01, time.Minute)
	now := time.Unix(0, 0)
	slo.SetClock(func() time.Time { return now })

	slo.ObserveN(0, 100)
	now = now.Add(time.Hour)
	slo.ObserveN(1, 0)
	if ratio := reg.Gauge("slo_bad_ratio", "slo", "latency").Value(); ratio != 0 {
		t.Fatalf("bad ratio after an idle hour = %g, want 0", ratio)
	}
	if burn := reg.Gauge("slo_burn_rate", "slo", "latency").Value(); burn != 0 {
		t.Fatalf("burn rate after an idle hour = %g, want 0", burn)
	}
}

func TestLintPromCatchesProblems(t *testing.T) {
	cases := []struct {
		name string
		in   string
		bad  bool
	}{
		{"clean", "# TYPE a counter\na 1\nb{x=\"y\"} 2\n", false},
		{"clean exemplar", "h_bucket{le=\"+Inf\"} 3 # {trace_id=\"00ab\"} 7\n", false},
		{"escaped value", `m{k="a\"b\\c\nd"} 1` + "\n", false},
		{"duplicate series", "a 1\na 2\n", true},
		{"bad name", "1bad 1\n", true},
		{"bad label", "m{1k=\"v\"} 1\n", true},
		{"unquoted label", "m{k=v} 1\n", true},
		{"unterminated value", `m{k="v} 1` + "\n", true},
		{"bad escape", `m{k="\q"} 1` + "\n", true},
		{"missing value", "m{k=\"v\"}\n", true},
		{"bad value", "m notanumber\n", true},
		{"bad exemplar", "m 1 # notbrace 2\n", true},
		{"bad type", "# TYPE m frobnicator\n", true},
	}
	for _, tc := range cases {
		problems := LintProm(strings.NewReader(tc.in))
		if tc.bad && problems == nil {
			t.Errorf("%s: lint missed the problem", tc.name)
		}
		if !tc.bad && problems != nil {
			t.Errorf("%s: false positive: %v", tc.name, problems)
		}
	}
}
