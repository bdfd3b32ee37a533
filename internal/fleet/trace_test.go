package fleet

import (
	"bytes"
	"math/rand"
	"net"
	"testing"

	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/serve"
	"ssmdvfs/internal/telemetry"
)

// TestFleetTracingEndToEnd drives one sampled traced request through the
// full tier — client → router → replica — and checks that every hop's
// spans share the request's trace ID, the router attributes queue /
// coalesce / dispatch time, the replica attributes inference time, and
// the replica's flight recorder stamps the trace ID.
func TestFleetTracingEndToEnd(t *testing.T) {
	var routerSpans bytes.Buffer
	replicaTracers := make([]*telemetry.Tracer, 3)
	replicaBufs := make([]*bytes.Buffer, 3)

	opts := Options{Seed: 42, Tracer: telemetry.NewTracer(&routerSpans)}
	srvs := make([]*serve.Server, 3)
	for i := range srvs {
		var addr string
		addr, srvs[i] = startReplica(t, int64(100+i), serve.Options{})
		replicaBufs[i] = &bytes.Buffer{}
		replicaTracers[i] = telemetry.NewTracer(replicaBufs[i])
		srvs[i].SetTracer(replicaTracers[i])
		srvs[i].EnableProvenance(64, provenance.MonitorOptions{})
		opts.Replicas = append(opts.Replicas, addr)
	}
	rt, err := NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.ServeTCP(l)

	var clientSpans bytes.Buffer
	cl, err := serve.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTracer(telemetry.NewTracer(&clientSpans))

	hello, err := cl.Negotiate()
	if err != nil {
		t.Fatal(err)
	}
	if !hello.Router || !hello.Tracing {
		t.Fatalf("router hello = %+v, want Router and Tracing", hello)
	}

	rng := rand.New(rand.NewSource(7))
	rows := []serve.Request{
		{Preset: 0.1, Features: featureRow(rng), GPU: 4, Cluster: 2},
		{Preset: 0.3, Features: featureRow(rng), GPU: 9, Cluster: 1},
	}
	tc := telemetry.NewSampler(1, 99).Next()
	decs, hops, err := cl.DecideKeyedTraced(rows, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != len(rows) {
		t.Fatalf("got %d decisions", len(decs))
	}
	for i, d := range decs {
		if d.Reason != provenance.ReasonModel || d.Shard < 0 {
			t.Fatalf("decision %d = %+v, want model answer with a shard", i, d)
		}
	}
	if hops.DispatchUs == 0 {
		t.Fatalf("no dispatch time attributed: %+v", hops)
	}

	wantID := telemetry.FormatTraceID(tc.TraceID)
	names := map[string]bool{}
	collect := func(tr *telemetry.Tracer, buf *bytes.Buffer) {
		t.Helper()
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		spans, err := telemetry.ReadSpans(buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range spans {
			if sp.TraceID != wantID {
				t.Fatalf("span %s carries trace %q, want %q", sp.Name, sp.TraceID, wantID)
			}
			names[sp.Name] = true
		}
	}
	collect(rt.opts.Tracer, &routerSpans)
	for i, tr := range replicaTracers {
		collect(tr, replicaBufs[i])
	}
	for _, want := range []string{
		"router.queue", "router.coalesce", "router.dispatch",
		"engine.decode", "engine.batch", "engine.inference",
	} {
		if !names[want] {
			t.Fatalf("missing span %q across all hops (got %v)", want, names)
		}
	}

	// An unsampled context still routes — the plain keyed path.
	decs, hops, err = cl.DecideKeyedTraced(rows, telemetry.TraceContext{})
	if err != nil || len(decs) != len(rows) {
		t.Fatalf("unsampled call: %v %+v", err, decs)
	}
	if hops != (serve.HopTimings{}) {
		t.Fatalf("unsampled call returned hops %+v", hops)
	}

	// The replicas that answered stamped the trace ID into provenance. A
	// replica observes a frame after its reply; Close waits for that.
	stamped := 0
	for _, srv := range srvs {
		srv.Close()
		for _, rec := range srv.FlightRecorder().Snapshot(nil) {
			if rec.TraceID == tc.TraceID {
				stamped++
			}
		}
	}
	if stamped != len(rows) {
		t.Fatalf("%d provenance records stamped, want %d", stamped, len(rows))
	}
}

// TestShedSLOAndShedSpans checks the shed-rate SLO burn gauge moves when
// admission control refuses rows, and a sampled shed row gets a
// router.shed span with its cause.
func TestShedSLOAndShedSpans(t *testing.T) {
	var spans bytes.Buffer
	rt, err := NewRouter(Options{
		Replicas: []string{"127.0.0.1:1"}, // nothing listens: dial fails
		Seed:     7,
		MaxHops:  1,
		Tracer:   telemetry.NewTracer(&spans),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	rng := rand.New(rand.NewSource(8))
	rows := []serve.Request{{Preset: 0.2, Features: featureRow(rng), GPU: 1, Cluster: 1}}
	tc := telemetry.NewSampler(1, 3).Next()
	decs, hops := rt.DecideTraced(rows, nil, tc)
	if decs[0].Reason != provenance.ReasonShed {
		t.Fatalf("decision = %+v, want shed", decs[0])
	}
	if hops.QueueUs == 0 {
		t.Fatalf("shed row attributed no queue time: %+v", hops)
	}
	if rt.Metrics().ShedTotal() == 0 {
		t.Fatal("shed counter did not move")
	}
	if err := rt.opts.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := telemetry.ReadSpans(&spans)
	if err != nil {
		t.Fatal(err)
	}
	foundShed := false
	for _, sp := range got {
		if sp.Name == "router.shed" {
			foundShed = true
			if sp.Attrs["cause"] == "" {
				t.Fatalf("shed span has no cause attr: %+v", sp)
			}
		}
	}
	if !foundShed {
		t.Fatalf("no router.shed span in %v", got)
	}
}
