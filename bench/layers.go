package main

// layers.go holds every call into the APIs that ROADMAP items 2–4 intend
// to reshape: the serve.wire Append/Decode families, the engine's
// Set*/Enable* planes, traced frames, and the int8 backend. The workloads
// reach them only through the functions here, so a change to one of those
// APIs needs this file edited, not the benchmark rewritten.

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"ssmdvfs/internal/baselines"
	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/fleet"
	"ssmdvfs/internal/infer"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/nn"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/serve"
	"ssmdvfs/internal/telemetry"
)

const (
	backendFloat64 = "float64"
	backendInt8    = "int8"

	// flightRecCap is the flight-recorder size serve_observed arms, as in
	// `ssmdvfsd -flightrec 16384`.
	flightRecCap = 16384
	// traceEvery is how many frames share one traced frame on
	// serve_observed.
	traceEvery = 8
)

// planes says which of the engine's observation planes are armed.
type planes struct {
	flightrec, feedback, ledger, tracer, shadow bool
}

// observedPlanes is how `ssmdvfsd -flightrec 16384 -ledger` with
// prediction feedback and a span file arms its engine.
var observedPlanes = planes{flightrec: true, feedback: true, ledger: true, tracer: true}

var allPlanes = planes{flightrec: true, feedback: true, ledger: true, tracer: true, shadow: true}

// newEngine builds a decision engine on its own copy of m with the given
// backend and planes. Spans go to io.Discard: their cost is recording
// them, not keeping them.
func newEngine(m *core.Model, backend string, p planes) (*serve.Engine, error) {
	e, err := serve.NewEngine(m.Clone(), serve.Options{Backend: backend})
	if err != nil {
		return nil, err
	}
	// Feedback and the shadow observer ride on the provenance record.
	if p.flightrec || p.feedback || p.shadow {
		e.EnableProvenance(flightRecCap, provenance.MonitorOptions{})
	}
	if p.feedback {
		e.EnablePredFeedback()
	}
	if p.ledger {
		e.SetLedger(ledger.New(ledger.Options{Registry: e.Telemetry()}))
	}
	if p.tracer {
		e.SetTracer(telemetry.NewTracer(io.Discard))
	}
	if p.shadow {
		e.SetShadow(&shadowSink{})
	}
	return e, nil
}

// newServer is newEngine behind the binary-protocol transport.
func newServer(m *core.Model, backend string, p planes) (*serve.Server, error) {
	e, err := newEngine(m, backend, p)
	if err != nil {
		return nil, err
	}
	return serve.NewServerEngine(e), nil
}

// shadowSink stands in for adapt's shadow scorer: it copies each served
// row into a bounded ring and never blocks, which is the contract
// serve.ShadowObserver states.
type shadowSink struct {
	mu   sync.Mutex
	ring [256][counters.Num]float64
	n    int
}

func (s *shadowSink) ObserveServed(row serve.Request, _ serve.Decision) {
	s.mu.Lock()
	copy(s.ring[s.n%len(s.ring)][:], row.Features)
	s.n++
	s.mu.Unlock()
}

// tracedCaller is serve_observed's client: one frame in traceEvery goes
// out as a traced frame, the rest as plain keyed frames.
type tracedCaller struct {
	cl      *serve.Client
	sampler *telemetry.Sampler
}

// dialTraced connects, negotiates (a traced frame may only go to a peer
// that advertised tracing) and gives the client a span tracer.
func dialTraced(addr string, seed uint64) (*tracedCaller, error) {
	cl, err := serve.Dial(addr)
	if err != nil {
		return nil, err
	}
	hello, err := cl.Negotiate()
	if err != nil {
		cl.Close()
		return nil, err
	}
	if !hello.Tracing {
		cl.Close()
		return nil, fmt.Errorf("server at %s does not accept traced frames", addr)
	}
	cl.SetTracer(telemetry.NewTracer(io.Discard))
	return &tracedCaller{cl: cl, sampler: telemetry.NewSampler(traceEvery, seed)}, nil
}

func (c *tracedCaller) decide(f *frame, _ bool) ([]serve.Decision, error) {
	decs, _, err := c.cl.DecideKeyedTraced(f.rows, c.sampler.Next())
	return decs, err
}

func (c *tracedCaller) Close() error { return c.cl.Close() }

// routerDecideTraced is Router.Decide for a frame a traced run samples: a
// sampled trace context makes the router fill in the per-hop timings.
func routerDecideTraced(rt *fleet.Router, rows []serve.Request, decs []serve.Decision, traceID uint64) ([]serve.Decision, serve.HopTimings) {
	return rt.DecideTraced(rows, decs, telemetry.TraceContext{TraceID: traceID, Flags: telemetry.FlagSampled})
}

// --- the ladder -----------------------------------------------------------

// ladder replays frames down the layers below the transport, in process:
// wire encode → decode → Engine.DecideBatch → core.Inference →
// infer.Backend → response encode → decode. Each rung is one public call
// (or the pair of calls, one per model head, that the layer above makes),
// on inputs staged beforehand so that a rung times its own layer only.
type ladder struct {
	rows   int
	frames []frame
	staged []stagedFrame

	dBk, cBk   infer.Backend
	dScr, cScr infer.Scratch
	inf        *core.Inference
	engine     *serve.Engine
	sampler    *telemetry.Sampler // non-nil: one engine call in traceEvery is traced

	decs    []serve.Decision
	reqBuf  []byte
	respBuf []byte
	rowScr  []serve.Request
	decScr  []serve.Decision
}

// stagedFrame is what the rungs below the codec need ready: standardized
// head inputs for the backend, and encoded payloads for the decoders.
type stagedFrame struct {
	dIn, cIn  nn.Batch
	req, resp []byte
	decs      []serve.Decision
}

func newLadder(m *core.Model, backend string, p planes, frames []frame) (*ladder, error) {
	e, err := newEngine(m, backend, p)
	if err != nil {
		return nil, err
	}
	bound := e.Model() // the engine's clone, with the backend resolved
	kind, err := infer.ParseKind(backend)
	if err != nil {
		return nil, err
	}
	l := &ladder{rows: len(frames[0].rows), frames: frames, engine: e, inf: core.NewInference(bound)}
	if p.tracer {
		l.sampler = telemetry.NewSampler(traceEvery, 1)
	}
	if l.dBk, err = infer.New(bound.Decision, kind); err != nil {
		return nil, err
	}
	if l.cBk, err = infer.New(bound.Calibrator, kind); err != nil {
		return nil, err
	}
	nf := bound.NumFeatures()
	raw := make([]float64, nf+2)
	l.staged = make([]stagedFrame, len(frames))
	for k := range frames {
		f, s := &frames[k], &l.staged[k]
		s.dIn.Reset(l.rows, nf+1)
		s.cIn.Reset(l.rows, nf+2)
		s.decs = make([]serve.Decision, l.rows)
		for r, row := range f.rows {
			counters.SelectInto(row.Features, bound.FeatureIdx, raw)
			raw[nf] = row.Preset
			bound.DecisionScaler.TransformInto(raw[:nf+1], s.dIn.Row(r))
			raw[nf+1] = float64(f.want[r].level)
			bound.CalibScaler.TransformInto(raw, s.cIn.Row(r))
			s.decs[r] = serve.Decision{Level: f.want[r].level, Reason: provenance.ReasonModel, PredInstr: f.want[r].pred, Shard: -1}
		}
		if s.req, err = serve.AppendKeyedRequestFrame(nil, f.rows); err != nil {
			return nil, err
		}
		if s.resp, err = serve.AppendKeyedResponseFrame(nil, serve.StatusOK, s.decs); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// rung is one step of the ladder; run replays frame k through it.
type rung struct {
	name string
	run  func(k int)
}

// The nested rungs, bottom up: each contains the one before it.

func (l *ladder) inferRung(k int) {
	s := &l.staged[k]
	if l.rows == 1 { // the engine answers a lone row with the single-row kernel
		l.dBk.Forward(s.dIn.Row(0), &l.dScr)
		l.cBk.Forward(s.cIn.Row(0), &l.cScr)
		return
	}
	l.dBk.ForwardBatch(&s.dIn, &l.dScr)
	l.cBk.ForwardBatch(&s.cIn, &l.cScr)
}

func (l *ladder) coreRung(k int) {
	rows := l.frames[k].rows
	if l.rows == 1 {
		l.inf.Decide(rows[0].Features, rows[0].Preset)
		return
	}
	l.inf.BeginBatch(len(rows))
	for r := range rows {
		l.inf.SetBatchRow(r, rows[r].Features, rows[r].Preset)
	}
	l.inf.DecideBatch()
}

func (l *ladder) engineRung(k int) {
	if l.sampler != nil {
		l.decs, _ = l.engine.DecideBatchTraced(l.frames[k].rows, l.decs[:0], l.sampler.Next())
		return
	}
	l.decs = l.engine.DecideBatch(l.frames[k].rows, l.decs[:0])
}

// The codec rungs, in the order a frame meets them.

func (l *ladder) encodeRequest(k int) {
	l.reqBuf, _ = serve.AppendKeyedRequestFrame(l.reqBuf[:0], l.frames[k].rows)
}

func (l *ladder) decodeRequest(k int) {
	l.rowScr, _ = serve.DecodeKeyedRequestFrame(l.staged[k].req, l.rowScr)
}

func (l *ladder) encodeResponse(k int) {
	l.respBuf, _ = serve.AppendKeyedResponseFrame(l.respBuf[:0], serve.StatusOK, l.staged[k].decs)
}

func (l *ladder) decodeResponse(k int) {
	l.decScr, _ = serve.DecodeKeyedResponseFrame(l.staged[k].resp, l.decScr)
}

// tracedCodec is the four codec calls of one traced frame.
func (l *ladder) tracedCodec(k int) {
	tc := telemetry.TraceContext{TraceID: uint64(k) + 1, Flags: telemetry.FlagSampled}
	l.reqBuf, _ = serve.AppendTracedRequestFrame(l.reqBuf[:0], l.frames[k].rows, tc)
	l.rowScr, _, _ = serve.DecodeTracedRequestFrame(l.reqBuf, l.rowScr)
	l.respBuf, _ = serve.AppendTracedResponseFrame(l.respBuf[:0], serve.StatusOK, l.staged[k].decs, tc.TraceID, serve.HopTimings{InferUs: 1})
	l.decScr, _, _ = serve.DecodeTracedResponseFrame(l.respBuf, l.decScr)
}

// rungs lists the ladder in the order a traced frame's replay records it.
func (l *ladder) rungs() []rung {
	return []rung{
		{"serve.wire.encode_request", l.encodeRequest},
		{"serve.wire.decode_request", l.decodeRequest},
		{"serve.engine.decide_batch", l.engineRung},
		{"core.inference.decide", l.coreRung},
		{"infer.backend.forward", l.inferRung},
		{"serve.wire.encode_response", l.encodeResponse},
		{"serve.wire.decode_response", l.decodeResponse},
	}
}

// time runs one rung over the frames in turn for about budget and returns
// the cost of one frame and its allocations.
func (l *ladder) time(budget time.Duration, run func(k int)) (nsPerFrame, allocs float64) {
	return timeLoop(budget, func(i int) { run(i % len(l.frames)) })
}

// ladderTimes are one ladder's rungs, in ns per frame.
type ladderTimes struct {
	infer, core, engine                  float64
	encReq, decReq, encResp, decResp     float64
	coreAllocs, engineAllocs, wireAllocs float64
}

func (t ladderTimes) codec() float64 { return t.encReq + t.decReq + t.encResp + t.decResp }

// timeAll times every rung, their batches alternating (see timeLoops).
func (l *ladder) timeAll(budget time.Duration) ladderTimes {
	over := func(run func(k int)) func(int) {
		return func(i int) { run(i % len(l.frames)) }
	}
	c := timeLoops(budget, over(l.inferRung), over(l.coreRung), over(l.engineRung),
		over(l.encodeRequest), over(l.decodeRequest), over(l.encodeResponse), over(l.decodeResponse))
	return ladderTimes{
		infer: c[0].ns, core: c[1].ns, engine: c[2].ns,
		encReq: c[3].ns, decReq: c[4].ns, encResp: c[5].ns, decResp: c[6].ns,
		coreAllocs: c[1].allocs, engineAllocs: c[2].allocs,
		wireAllocs: c[3].allocs + c[4].allocs + c[5].allocs + c[6].allocs,
	}
}

// flipPPM is how many rows per million the ladder's backend levels differ
// from the float64 reference on, over every staged frame.
func (l *ladder) flipPPM() float64 {
	var flips, rows int
	for k := range l.frames {
		l.engineRung(k)
		for r, d := range l.decs {
			rows++
			if d.Level != l.frames[k].want[r].level {
				flips++
			}
		}
	}
	return 1e6 * float64(flips) / float64(rows)
}

// --- planes ----------------------------------------------------------------

// timePlanes fills the serve.engine.plane_* metrics: the cost of one row
// through Engine.DecideBatch with no plane armed, with each armed alone,
// with all of them, and with all of them under two goroutines (where the
// feedback map's one mutex and the ledger's are contended).
func timePlanes(rep *report, m *core.Model, frames []frame, budget time.Duration) error {
	rows := float64(len(frames[0].rows))
	for _, c := range []struct {
		name string
		p    planes
	}{
		{"none", planes{}},
		{"flightrec", planes{flightrec: true}},
		{"feedback", planes{feedback: true}},
		{"ledger", planes{ledger: true}},
		{"trace8", planes{tracer: true}},
		{"shadow", planes{shadow: true}},
		{"all", allPlanes},
	} {
		l, err := newLadder(m, backendFloat64, c.p, frames)
		if err != nil {
			return err
		}
		ns, _ := l.time(budget, l.engineRung)
		rep.set("serve.engine.plane_"+c.name+"_ns_per_row", ns/rows)
	}

	// Two goroutines on one engine, each with its own decision scratch.
	l, err := newLadder(m, backendFloat64, allPlanes, frames)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	per := make([]float64, 2)
	for g := range per {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var decs []serve.Decision
			per[g], _ = timeLoop(budget, func(i int) {
				rows := frames[(i*2+g)%len(frames)].rows
				decs, _ = l.engine.DecideBatchTraced(rows, decs[:0], l.sampler.Next())
			})
		}(g)
	}
	wg.Wait()
	// Both ran for the same wall time; rows per ns add.
	rep.set("serve.engine.plane_all_ns_per_row_2g", 1/(rows/per[0]+rows/per[1]))
	return nil
}

// timeObservability fills the metrics of the packages the planes are built
// from, each call timed alone.
func timeObservability(rep *report, in *inputs, frames []frame, budget time.Duration) error {
	samples := in.ds.Samples
	feats := func(i int) []float64 { return samples[i%len(samples)].Features }

	// provenance: one record into the ring, and a dump of a full ring.
	recorder := provenance.NewRecorder(flightRecCap)
	var rec provenance.Record
	rec.Reason = provenance.ReasonModel
	ns, _ := timeLoop(budget, func(i int) {
		rec.SetRaw(feats(i))
		recorder.Record(&rec)
	})
	rep.set("provenance.record_ns", ns)
	for i := 0; i < flightRecCap; i++ {
		recorder.Record(&rec)
	}
	var dump []provenance.Record
	ns, _ = timeLoop(budget, func(int) { dump = recorder.Snapshot(dump[:0]) })
	rep.set("provenance.snapshot_us", ns/1e3)

	// ledger: pricing one decision, accounting it, merging three replicas.
	led := ledger.New(ledger.Options{})
	meter := led.Meter()
	ns, _ = timeLoop(budget, func(i int) { meter.Account(feats(i), in.ref[i%len(samples)][0].level) })
	rep.set("ledger.account_ns", ns)
	ns, _ = timeLoop(budget, func(i int) {
		led.Observe(int32(i%24), 0, in.ref[i%len(samples)][0].level, feats(i), presets[0])
	})
	rep.set("ledger.observe_ns", ns)
	snap := led.Snapshot()
	ns, _ = timeLoop(budget, func(int) { ledger.Merge(snap, snap, snap) })
	rep.set("ledger.merge3_us", ns/1e3)

	// telemetry: one histogram observation, one recorded span.
	hist := telemetry.NewRegistry().Histogram("bench_observe_us")
	ns, _ = timeLoop(budget, func(i int) { hist.Observe(int64(i & 1023)) })
	rep.set("telemetry.histogram_observe_ns", ns)
	tracer := telemetry.NewTracer(io.Discard)
	tc := telemetry.TraceContext{TraceID: 1, Flags: telemetry.FlagSampled}
	ns, _ = timeLoop(budget, func(int) { tracer.StartSpan(tc, "bench.span").End() })
	rep.set("telemetry.span_ns", ns)

	// baselines: the analytical decision a degraded row gets.
	table := clockdomain.TitanX()
	ns, _ = timeLoop(budget, func(i int) { baselines.FallbackDecision(table, feats(i), presets[i&1]) })
	rep.set("baselines.fallback_decision_ns", ns)

	// serve.wire: the codec of a traced frame.
	l, err := newLadder(in.model, backendFloat64, planes{}, frames)
	if err != nil {
		return err
	}
	ns, _ = l.time(budget, l.tracedCodec)
	rep.set("serve.wire.traced_codec_ns_b64", ns)

	// core: one online re-fit of the Calibrator on a flight recorder's
	// worth of stream rows — what an adaptation cycle costs the daemon.
	nf := in.model.NumFeatures()
	n := 512
	if budget <= 0 {
		n = 32
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, n)
	targets := make([]float64, n)
	for i := range rows {
		s := rng.Intn(len(samples))
		row := make([]float64, nf+2)
		counters.SelectInto(samples[s].Features, in.model.FeatureIdx, row)
		row[nf], row[nf+1] = presets[i&1], float64(samples[s].Level)
		rows[i], targets[i] = row, samples[s].ScalingInstr
	}
	opts := core.RefitOptions{Seed: 1}
	if budget <= 0 {
		opts.Epochs = 1
	}
	start := time.Now()
	if _, _, err := core.RefitCalibrator(in.model, rows, targets, opts); err != nil {
		return fmt.Errorf("refit: %w", err)
	}
	rep.set("core.refit_ms", float64(time.Since(start))/1e6)
	return nil
}
