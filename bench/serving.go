package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"ssmdvfs/internal/asic"
	"ssmdvfs/internal/fleet"
	"ssmdvfs/internal/serve"
)

// servingSpec describes one closed-loop serving workload. All of them run
// the server (and router) in this process on loopback TCP, with one
// generator goroutine per connection and never more than nproc of them.
type servingSpec struct {
	name         string
	rowsPerFrame int
	backend      string
	planes       planes
	// key gives caller c's frames their (gpu, cluster) identities.
	key func(c int) keyFunc
	// traced makes the callers serve_observed's traced clients.
	traced bool
	// replicas > 0 puts a fleet.Router over that many in-process replicas
	// and makes the callers call Router.Decide.
	replicas int
	// layers fills the per-layer metrics this workload owns.
	layers func(rig *servingRig, cfg config, rep *report, untraced loopResult, situ inSitu) error
}

const servingCallers = 2

var servingSpecs = map[string]servingSpec{
	wServeEpoch: {
		name: wServeEpoch, rowsPerFrame: 1, backend: backendFloat64,
		// One GPU per connection, asking for its clusters' levels in turn.
		key:    func(c int) keyFunc { return func(n, _ int) (int32, int32) { return int32(c), int32(n % 24) } },
		layers: layersEpoch,
	},
	wServeBatch: {
		name: wServeBatch, rowsPerFrame: 64, backend: backendFloat64,
		key:    batchKeys,
		layers: layersBatch,
	},
	wServeBatchInt8: {
		name: wServeBatchInt8, rowsPerFrame: 64, backend: backendInt8,
		key:    batchKeys,
		layers: layersBatchInt8,
	},
	wServeObserved: {
		name: wServeObserved, rowsPerFrame: 64, backend: backendFloat64,
		planes: observedPlanes, traced: true,
		// 4096 identities (128 GPUs × 32 clusters), half to each caller, so
		// that the feedback map and the ledger's groups are fleet-sized and
		// each identity's epochs arrive in order on one connection.
		key: func(c int) keyFunc {
			return func(n, r int) (int32, int32) {
				id := c*2048 + (n*64+r)%2048
				return int32(id / 32), int32(id % 32)
			}
		},
		layers: layersObserved,
	},
	wFleetRoute: {
		name: wFleetRoute, rowsPerFrame: 24, backend: backendFloat64, replicas: 2,
		// A frame is one GPU's 24 clusters.
		key:    func(c int) keyFunc { return func(n, r int) (int32, int32) { return int32(c*1000 + n), int32(r) } },
		layers: layersFleet,
	},
}

func batchKeys(c int) keyFunc {
	return func(n, r int) (int32, int32) { return int32(c*1000 + n), int32(r) }
}

// clientCaller is a plain keyed client of a daemon.
type clientCaller struct{ cl *serve.Client }

func (c clientCaller) decide(f *frame, _ bool) ([]serve.Decision, error) {
	return c.cl.DecideKeyed(f.rows)
}

// routerCaller calls the in-process router; in a traced run the sampled
// frames go out traced, and it keeps the HopTimings that come back.
type routerCaller struct {
	rt   *fleet.Router
	decs []serve.Decision
	hops []serve.HopTimings
}

func (c *routerCaller) decide(f *frame, sampled bool) ([]serve.Decision, error) {
	if sampled {
		var h serve.HopTimings
		c.decs, h = routerDecideTraced(c.rt, f.rows, c.decs[:0], uint64(len(c.hops)+1))
		c.hops = append(c.hops, h)
		return c.decs, nil
	}
	c.decs = c.rt.Decide(f.rows, c.decs[:0])
	return c.decs, nil
}

// servingRig is a workload set up and warm: servers listening, clients
// connected, frames dealt, every path exercised once.
type servingRig struct {
	spec    servingSpec
	in      *inputs
	servers []*serve.Server
	addrs   []string
	router  *fleet.Router
	workers []*worker
	closers []io.Closer
}

func (r *servingRig) close() {
	for _, c := range r.closers {
		c.Close()
	}
	if r.router != nil {
		r.router.Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
}

// listen starts one in-process daemon on a loopback port.
func (r *servingRig) listen() error {
	srv, err := newServer(r.in.model, r.spec.backend, r.spec.planes)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.ServeTCP(l) // returns when close() closes the listener
	r.servers = append(r.servers, srv)
	r.addrs = append(r.addrs, l.Addr().String())
	return nil
}

// setupServing is everything between process start and the first timed
// window: load the artifacts, compute the reference decisions, start the
// servers, connect, deal the frames, and warm up with every frame checked
// against the reference.
func setupServing(spec servingSpec, cfg config, rep *report) (*servingRig, error) {
	in, err := loadInputs(cfg.root)
	if err != nil {
		return nil, err
	}
	rig := &servingRig{spec: spec, in: in}
	n := 1
	if spec.replicas > 0 {
		n = spec.replicas
	}
	for i := 0; i < n; i++ {
		if err := rig.listen(); err != nil {
			rig.close()
			return nil, err
		}
	}
	if spec.replicas > 0 {
		// A queue this long and a deadline this late never shed under two
		// callers, so a shed row is a bug and not noise.
		rig.router, err = fleet.NewRouter(fleet.Options{Replicas: rig.addrs, QueueLen: 4096, QueueDeadline: time.Second})
		if err != nil {
			rig.close()
			return nil, err
		}
	}
	for c := 0; c < servingCallers; c++ {
		w := &worker{id: c, levelsOnly: spec.backend == backendInt8}
		switch {
		case rig.router != nil:
			w.c = &routerCaller{rt: rig.router}
		case spec.traced:
			tc, err := dialTraced(rig.addrs[0], uint64(cfg.seed)<<8|uint64(c))
			if err != nil {
				rig.close()
				return nil, err
			}
			rig.closers = append(rig.closers, tc)
			w.c = tc
		default:
			cl, err := serve.Dial(rig.addrs[0])
			if err != nil {
				rig.close()
				return nil, err
			}
			rig.closers = append(rig.closers, cl)
			w.c = clientCaller{cl}
		}
		rng := rand.New(rand.NewSource(cfg.seed*int64(servingCallers) + int64(c)))
		if w.frames, err = in.frames(rng, spec.rowsPerFrame, spec.key(c)); err != nil {
			rig.close()
			return nil, err
		}
		rig.workers = append(rig.workers, w)
	}

	warm := 16384 / spec.rowsPerFrame
	if cfg.smoke {
		warm = 4
	}
	var wg sync.WaitGroup
	for _, w := range rig.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := 0; i < warm; i++ {
				w.send(true)
			}
		}(w)
	}
	wg.Wait()
	collect(rig.workers, rep)
	return rig, nil
}

// runServing is the whole of one serving workload's run.
func runServing(spec servingSpec, cfg config, rep *report) error {
	rig, setupS, err := repeatSetup(cfg, func() (*servingRig, error) { return setupServing(spec, cfg, rep) }, (*servingRig).close)
	if err != nil {
		return err
	}
	defer rig.close()
	rep.set("setup_s", setupS)

	if !cfg.trace {
		res := runWindows(rig.workers, cfg.windows(), cfg.window(), rep)
		rep.windows = len(res.perSecond)
		rep.setWindows("decisions_per_s", res.perSecond)
		rep.setWindows("op_p50_us", res.p50us)
		rep.set("cpu_us_per_decision", float64(res.cpu)/1e3/float64(res.decisions))
		rep.set("peak_rss_mb", res.peakRSSMB)
		return nil
	}

	// Traced run: untraced windows first (the base the overhead is taken
	// against), then the same again with every checkEvery-th frame sampled
	// into the trace and replayed down the ladder, then the timed loops
	// over each layer.
	untraced := runWindows(rig.workers, cfg.windows(), cfg.window(), rep)
	rec := newSpanRecorder()
	for _, w := range rig.workers {
		if err := rig.sample(w, rec); err != nil {
			return err
		}
	}
	traced := runWindows(rig.workers, cfg.windows(), cfg.window(), rep)
	for _, w := range rig.workers {
		w.onSample = nil
	}
	rep.windows = len(untraced.perSecond) + len(traced.perSecond)
	rep.set("bench.op_p99_us", untraced.p99us)
	rep.set("bench.trace_overhead_pct", 100*(1-median(traced.perSecond)/median(untraced.perSecond)))
	situ := rig.inSitu(rec)
	rep.ladder = append(rep.ladder, situ.ladder(spec)...)
	if err := spec.layers(rig, cfg, rep, untraced, situ); err != nil {
		return err
	}
	return rec.write(cfg.tracePath(spec.name))
}

// replayFrames is how many consecutive frames one replay span covers: a
// one-row frame costs about as much as the two clock reads around it, so
// the replay of a sampled one-row frame runs on through its successors.
func (s servingSpec) replayFrames() int { return max(1, 16/s.rowsPerFrame) }

// sample arms worker w for a traced run: each sampled frame's real round
// trip becomes a span, and a frame of the same shape is then replayed down
// w's own ladder, one span per rung, under the same frame identifier.
func (r *servingRig) sample(w *worker, rec *spanRecorder) error {
	l, err := newLadder(r.in.model, r.spec.backend, r.spec.planes, w.frames)
	if err != nil {
		return err
	}
	rungs := l.rungs()
	reps, n := r.spec.replayFrames(), len(w.frames)
	attrs := map[string]string{"rows": fmt.Sprint(r.spec.rowsPerFrame), "frames": fmt.Sprint(reps)}
	top, topLayer := "client.roundtrip", "serve.transport"
	var direct *serve.Client
	if r.router != nil {
		// Under the router, the rung below it is a client talking straight
		// to one replica with the same rows.
		top, topLayer = "router.decide", "fleet.router"
		if direct, err = serve.Dial(r.addrs[w.id%len(r.addrs)]); err != nil {
			return err
		}
		r.closers = append(r.closers, direct)
	}
	w.onSample = func(w *worker, f *frame, t0, t1 time.Time) {
		k := (w.n - 1) % n
		frameID, root := rec.newID(), rec.newID()
		rec.add(top, topLayer, w.id, frameID, root, 0, t0, t1, nil)
		if direct != nil {
			s := time.Now()
			if _, err := direct.DecideKeyed(f.rows); err == nil { // a failed replay is no sample
				rec.add("replay.client.roundtrip", "serve.transport", w.id, frameID, rec.newID(), root, s, time.Now(), nil)
			}
		}
		// Replayed are not the rows just served but the ones half a cycle
		// away in the caller's frames. The server ran the kernels on this
		// very frame microseconds ago, likely on this core, and the branch
		// predictor still knows its rows: replaying them reads up to twice
		// as fast as the server's own pass over a frame it has not seen for
		// a cycle. The frame before is run first, unrecorded, so that the
		// refill of caches the TCP stack just used is not charged to
		// whichever rung comes first.
		at := k + n/2
		for _, g := range rungs {
			g.run((at - 1) % n)
			s := time.Now()
			for j := 0; j < reps; j++ {
				g.run((at + j) % n)
			}
			rec.add("replay."+g.name, g.name, w.id, frameID, rec.newID(), root, s, time.Now(), attrs)
		}
	}
	return nil
}

// inSitu is the ladder read back out of a traced run's spans: the median
// over the sampled frames of each rung, in ns per frame, taken while the
// workload was running. The transport's share (and the router's) is what
// the real round trip leaves over: a residual, not a measurement.
type inSitu struct {
	infer, core, engine, codec float64
	direct                     float64 // fleet_route: a client straight to a replica
	top                        float64 // the real call: client round trip, or Router.Decide
}

func (r *servingRig) inSitu(rec *spanRecorder) inSitu {
	d := rec.durations()
	reps := float64(r.spec.replayFrames())
	med := func(name string) float64 { return median(d["replay."+name]) * 1e3 / reps }
	s := inSitu{
		infer: med("infer.backend.forward"), core: med("core.inference.decide"), engine: med("serve.engine.decide_batch"),
		codec: med("serve.wire.encode_request") + med("serve.wire.decode_request") +
			med("serve.wire.encode_response") + med("serve.wire.decode_response"),
		direct: median(d["replay.client.roundtrip"]) * 1e3,
		top:    median(d["client.roundtrip"]) * 1e3,
	}
	if r.router != nil {
		s.top = median(d["router.decide"]) * 1e3
	}
	return s
}

// transport is the daemon's round trip: the real one, or under a router
// the direct client's.
func (s inSitu) transport() float64 {
	if s.direct > 0 {
		return s.direct
	}
	return s.top
}

// transportResidual is what Server.ServeConn and Client add to the codec
// and the engine.
func (s inSitu) transportResidual() float64 { return s.transport() - s.engine - s.codec }

func (s inSitu) ladder(spec servingSpec) []ladderRow {
	layers := []string{"infer", "core", "serve.engine", "serve.wire", "serve.transport"}
	cum := []float64{s.infer, s.core, s.engine, s.engine + s.codec, s.transport()}
	if s.direct > 0 {
		layers, cum = append(layers, "fleet.router"), append(cum, s.top)
	}
	return buildLadder(spec.backend, "trace", spec.rowsPerFrame, layers, cum)
}

// loopLadder records one ladder's timed loops in the report. It stops at
// the codec: a round trip measured under load does not stack on loops
// timed in an otherwise idle process.
func loopLadder(rep *report, backend string, batch int, t ladderTimes) {
	rep.ladder = append(rep.ladder, buildLadder(backend, "loop", batch,
		[]string{"infer", "core", "serve.engine", "serve.wire"},
		[]float64{t.infer, t.core, t.engine, t.engine + t.codec()})...)
}

func layersEpoch(rig *servingRig, cfg config, rep *report, untraced loopResult, situ inSitu) error {
	frames := rig.workers[0].frames
	l, err := newLadder(rig.in.model, backendFloat64, planes{}, frames)
	if err != nil {
		return err
	}
	t := l.timeAll(cfg.budget())
	rep.set("infer.float64.ns_per_row_b1", t.infer)
	rep.set("core.inference.ns_per_row_b1", t.core)
	rep.set("serve.engine.ns_per_row_b1", t.engine)
	rep.set("serve.wire.encode_request_ns_b1", t.encReq)
	rep.set("serve.wire.decode_request_ns_b1", t.decReq)

	// int8 at the same batch: the backend rung alone is what differs.
	l8, err := newLadder(rig.in.model, backendInt8, planes{}, frames)
	if err != nil {
		return err
	}
	t8 := l8.timeAll(cfg.budget())
	rep.set("infer.int8.ns_per_row_b1", t8.infer)

	loopLadder(rep, backendFloat64, 1, t)
	loopLadder(rep, backendInt8, 1, t8)
	rep.set("serve.transport.residual_us_b1", situ.transportResidual()/1e3)
	rep.set("serve.transport.share_b1", situ.transportResidual()/situ.transport())
	rep.set("serve.transport.rtt_p999_us_b1", untraced.p999us)
	rep.set("serve.transport.syscalls_per_frame", untraced.syscalls)
	rep.set("serve.transport.allocs_per_frame", untraced.mallocs)

	// Computed from the model, not measured.
	m := rig.in.model
	rep.set("infer.flops_per_row", float64(m.EffectiveFLOPs()))
	rep.set("infer.weight_bytes", float64(8*m.Params()))
	est, err := asic.Estimate(m, asic.DefaultConfig())
	if err != nil {
		return err
	}
	rep.set("asic.cycles_per_inference", float64(est.CyclesPerInference))
	return nil
}

func layersBatch(rig *servingRig, cfg config, rep *report, untraced loopResult, situ inSitu) error {
	l, err := newLadder(rig.in.model, backendFloat64, planes{}, rig.workers[0].frames)
	if err != nil {
		return err
	}
	t := l.timeAll(cfg.budget())
	rows := float64(l.rows)
	rep.set("infer.float64.ns_per_row_b64", t.infer/rows)
	rep.set("core.inference.ns_per_row_b64", t.core/rows)
	rep.set("core.inference.allocs_per_batch", t.coreAllocs)
	rep.set("serve.engine.ns_per_row_b64", t.engine/rows)
	rep.set("serve.engine.allocs_per_batch", t.engineAllocs)
	rep.set("serve.wire.encode_request_ns_b64", t.encReq)
	rep.set("serve.wire.decode_request_ns_b64", t.decReq)
	rep.set("serve.wire.encode_response_ns_b64", t.encResp)
	rep.set("serve.wire.decode_response_ns_b64", t.decResp)
	rep.set("serve.wire.request_bytes_b64", float64(len(l.staged[0].req)))
	rep.set("serve.wire.allocs_per_frame", t.wireAllocs)

	loopLadder(rep, backendFloat64, l.rows, t)
	rep.set("serve.transport.residual_us_b64", situ.transportResidual()/1e3)
	rep.set("serve.transport.share_b64", situ.transportResidual()/situ.transport())

	met := rig.servers[0].Metrics()
	rep.set("serve.engine.fallback_rows", float64(met.Fallbacks.Load()))
	rep.set("serve.engine.rejected_rows", float64(met.RejectedRows.Load()))
	return nil
}

func layersBatchInt8(rig *servingRig, cfg config, rep *report, untraced loopResult, situ inSitu) error {
	l, err := newLadder(rig.in.model, backendInt8, planes{}, rig.workers[0].frames)
	if err != nil {
		return err
	}
	t := l.timeAll(cfg.budget())
	rows := float64(l.rows)
	rep.set("infer.int8.ns_per_row_b64", t.infer/rows)
	rep.set("serve.engine.int8_ns_per_row_b64", t.engine/rows)
	rep.set("infer.int8.level_flip_ppm", l.flipPPM())
	loopLadder(rep, backendInt8, l.rows, t)
	return nil
}

func layersObserved(rig *servingRig, cfg config, rep *report, _ loopResult, _ inSitu) error {
	frames := rig.workers[0].frames
	if err := timePlanes(rep, rig.in.model, frames, cfg.budget()); err != nil {
		return err
	}
	return timeObservability(rep, rig.in, frames, cfg.budget())
}

func layersFleet(rig *servingRig, cfg config, rep *report, untraced loopResult, situ inSitu) error {
	rt := rig.router
	var hops []serve.HopTimings
	for _, w := range rig.workers {
		hops = append(hops, w.c.(*routerCaller).hops...)
	}
	hop := func(get func(serve.HopTimings) uint32) float64 {
		v := make([]float64, len(hops))
		for i, h := range hops {
			v[i] = float64(get(h))
		}
		return median(v)
	}
	rep.set("fleet.router.queue_us_p50", hop(func(h serve.HopTimings) uint32 { return h.QueueUs }))
	rep.set("fleet.router.coalesce_us_p50", hop(func(h serve.HopTimings) uint32 { return h.CoalesceUs }))
	rep.set("fleet.router.dispatch_us_p50", hop(func(h serve.HopTimings) uint32 { return h.DispatchUs }))
	rep.set("fleet.router.infer_us_p50", hop(func(h serve.HopTimings) uint32 { return h.InferUs }))

	// Router.Decide over the rung below it — a client straight to a replica
	// with the same 24 rows — both medians over the sampled frames.
	rep.set("fleet.router.residual_us", (situ.top-situ.direct)/1e3)

	batch := rt.Telemetry().Snapshot().Histograms["fleet_batch_rows"]
	if batch.Count > 0 {
		rep.set("fleet.router.rows_per_dispatch", float64(batch.Sum)/float64(batch.Count))
	}
	rep.set("fleet.router.shed_rows", float64(rt.Metrics().ShedTotal()))
	rep.set("fleet.router.reroutes", float64(rt.Metrics().Rerouted.Load()))
	rep.set("fleet.router.allocs_per_frame", untraced.mallocs)

	ring := rt.Ring()
	ns, _ := timeLoop(cfg.budget(), func(i int) { ring.Lookup(fleet.Key(ring.Seed(), int32(i), int32(i%24))) })
	rep.set("fleet.ring.lookup_ns", ns)
	return nil
}
