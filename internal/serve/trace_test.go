package serve

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"

	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

func TestTracedFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	rows := []Request{
		{Preset: 0.1, Features: featureRow(rng), GPU: 3, Cluster: 9},
		{Preset: 0.2, Features: featureRow(rng), GPU: 1, Cluster: 0},
	}
	tc := telemetry.TraceContext{TraceID: 0xabcdef, SpanID: 0x1234, Flags: telemetry.FlagSampled}
	payload, err := AppendTracedRequestFrame(nil, rows, tc)
	if err != nil {
		t.Fatal(err)
	}
	got, backTC, err := DecodeTracedRequestFrame(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if backTC != tc {
		t.Fatalf("trace context = %+v, want %+v", backTC, tc)
	}
	if len(got) != 2 || got[0].GPU != 3 || got[0].Cluster != 9 || got[1].Preset != 0.2 {
		t.Fatalf("rows round trip: %+v", got)
	}
	for j, f := range got[0].Features {
		if f != rows[0].Features[j] {
			t.Fatalf("feature %d differs", j)
		}
	}

	decs := []Decision{
		{Level: 2, Reason: provenance.ReasonModel, PredInstr: 11, Shard: 1},
		{Level: 4, Reason: provenance.ReasonShed, PredInstr: 7, Shard: -1, Rerouted: true},
	}
	hops := HopTimings{QueueUs: 5, CoalesceUs: 9, DispatchUs: 140, InferUs: 80}
	rp, err := AppendTracedResponseFrame(nil, StatusOK, decs, tc.TraceID, hops)
	if err != nil {
		t.Fatal(err)
	}
	if id := binary.BigEndian.Uint64(rp[headerLen+1:]); id != tc.TraceID {
		t.Fatalf("echoed trace ID %x, want %x", id, tc.TraceID)
	}
	back, backHops, err := DecodeTracedResponseFrame(rp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if backHops != hops {
		t.Fatalf("hops = %+v, want %+v", backHops, hops)
	}
	for i := range back {
		if back[i] != decs[i] {
			t.Fatalf("decision %d = %+v, want %+v", i, back[i], decs[i])
		}
	}
}

func TestHopTimingsMergeTakesMax(t *testing.T) {
	h := HopTimings{QueueUs: 5, InferUs: 100}
	h.Merge(HopTimings{QueueUs: 8, CoalesceUs: 3, InferUs: 40})
	want := HopTimings{QueueUs: 8, CoalesceUs: 3, InferUs: 100}
	if h != want {
		t.Fatalf("merged = %+v, want %+v", h, want)
	}
	if DurUs32(-time.Second) != 0 {
		t.Fatal("negative duration must clamp to 0")
	}
	if DurUs32(100*time.Hour) != 1<<32-1 {
		t.Fatal("huge duration must saturate")
	}
}

// TestTracedDecideEndToEnd drives a traced request through a live
// server: the hello-ack advertises tracing, the traced response carries
// inference attribution, engine spans share the request's trace ID, and
// the flight recorder stamps it so /debug/decisions?trace= can find it.
func TestTracedDecideEndToEnd(t *testing.T) {
	srv, err := NewServer(testModel(t, 61), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(64, provenance.MonitorOptions{})
	var spanBuf bytes.Buffer
	tracer := telemetry.NewTracer(&spanBuf)
	srv.SetTracer(tracer)

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

	hello, err := cl.Negotiate()
	if err != nil {
		t.Fatal(err)
	}
	if !hello.Tracing {
		t.Fatal("daemon must advertise tracing capability")
	}

	rng := rand.New(rand.NewSource(61))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng), GPU: 2, Cluster: 5}}
	tc := telemetry.NewSampler(1, 77).Next()
	decs, hops, err := cl.DecideKeyedTraced(rows, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 1 || decs[0].Reason != provenance.ReasonModel {
		t.Fatalf("traced decisions = %+v", decs)
	}
	if hops.QueueUs != 0 || hops.CoalesceUs != 0 {
		t.Fatalf("daemon invented router hops: %+v", hops)
	}

	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ReadSpans(&spanBuf)
	if err != nil {
		t.Fatal(err)
	}
	wantID := telemetry.FormatTraceID(tc.TraceID)
	byName := map[string]telemetry.SpanRecord{}
	for _, sp := range spans {
		if sp.TraceID != wantID {
			t.Fatalf("span %s carries trace %q, want %q", sp.Name, sp.TraceID, wantID)
		}
		byName[sp.Name] = sp
	}
	for _, name := range []string{"engine.decode", "engine.batch", "engine.inference"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("missing span %s (got %v)", name, spans)
		}
	}

	// An unsampled context must follow the plain keyed path.
	decs, hops, err = cl.DecideKeyedTraced(rows, telemetry.TraceContext{})
	if err != nil || len(decs) != 1 {
		t.Fatalf("unsampled traced call: %v %+v", err, decs)
	}
	if hops != (HopTimings{}) {
		t.Fatalf("unsampled call returned hops %+v", hops)
	}

	srv.Close() // the planes see a frame after its reply; Close waits for them
	recs := srv.FlightRecorder().Snapshot(nil)
	if len(recs) != 2 || recs[0].TraceID != tc.TraceID || recs[1].TraceID != 0 {
		t.Fatalf("flight recorder trace stamp: %+v", recs)
	}
}

// TestTracingDisabledDecideBatchZeroAlloc pins the acceptance criterion:
// the tracing-disabled decision path (no tracer, zero trace context)
// allocates nothing.
func TestTracingDisabledDecideBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse")
	}
	srv, err := NewServer(testModel(t, 62), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng), GPU: 1, Cluster: 1}}
	decs := make([]Decision, 0, 4)
	decs, _ = srv.DecideBatchTraced(rows, decs[:0], telemetry.TraceContext{}) // warm pools
	allocs := testing.AllocsPerRun(200, func() {
		decs, _ = srv.DecideBatchTraced(rows, decs[:0], telemetry.TraceContext{})
	})
	if allocs != 0 {
		t.Fatalf("tracing-disabled DecideBatchTraced allocates %v/op, want 0", allocs)
	}
}

// BenchmarkDecide_TracingDisabled measures (and, via -benchmem, proves
// allocation-free) the decision path with tracing compiled in but
// disabled — the CI zero-alloc step asserts 0 allocs/op on this.
func BenchmarkDecide_TracingDisabled(b *testing.B) {
	srv, err := NewServer(testModel(b, 63), Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng), GPU: 1, Cluster: 1}}
	decs := make([]Decision, 0, 4)
	decs, _ = srv.DecideBatchTraced(rows, decs[:0], telemetry.TraceContext{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decs, _ = srv.DecideBatchTraced(rows, decs[:0], telemetry.TraceContext{})
	}
}
