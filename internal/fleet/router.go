package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"math/bits"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ssmdvfs/internal/baselines"
	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/serve"
	"ssmdvfs/internal/telemetry"
)

// Options configures a Router. Shed rows always fall back to the
// analytical decision over the TitanX operating-point table.
type Options struct {
	// Replicas are the binary-protocol addresses of the ssmdvfsd replicas
	// behind this router. Required.
	Replicas []string
	// VNodes and Seed configure the consistent-hash ring (see RingOptions).
	VNodes int
	Seed   uint64

	// CoalesceRows caps how many rows one dispatch merges into a frame
	// (default 64, capped at serve.MaxBatch). Batching is adaptive and
	// never waits: a free slot takes the first queued part plus whatever
	// else is already queued and still fits, so frames grow exactly while
	// every slot is busy. A part is never split; a larger one goes alone.
	CoalesceRows int

	// MaxInFlight is how many frames one shard may have on the wire at
	// once; each slot owns its own connection (default 2).
	MaxInFlight int
	// QueueLen is the per-shard admission queue capacity in rows (default
	// 1024). A part that does not fit sheds whole at submit time — except
	// into an empty queue, so an oversize part is served, not starved.
	QueueLen int
	// QueueDeadline sheds parts that waited longer than this between
	// submit and dispatch (default 2 ms): rows that stale get the
	// analytical fallback, not a late model decision. Zero disables it.
	QueueDeadline time.Duration
	// MaxHops bounds how many times one row may be rerouted to another
	// replica after dispatch failures before it sheds (default 1).
	MaxHops int

	// Dial configures the router→replica connections. Zero values get a
	// 1 s connect timeout and no retries (the router's reroute path is
	// its retry policy).
	Dial serve.DialOptions
	// ProbeInterval is how often every replica is re-dialed — unhealthy
	// ones for recovery, healthy ones to refresh the model lineage
	// generation they advertise (default 250 ms).
	ProbeInterval time.Duration
	// Tracer, when set, emits router-hop spans (router.queue,
	// router.coalesce, router.dispatch, router.reroute, router.shed) for
	// sampled traced requests. Nil keeps the routing path span-free; the
	// unsampled path pays only a flag check either way.
	Tracer *telemetry.Tracer
	// Logf receives progress messages; nil silences them.
	Logf func(format string, args ...any)

	// ReplicaHTTP lists the replicas' HTTP base URLs (e.g.
	// "http://127.0.0.1:8080"); when non-empty the router runs a ledger
	// scrape loop that pulls every replica's /debug/ledger snapshot,
	// merges them, evaluates AlertRules, and serves the fleet view at
	// /debug/ledger + ledger_fleet_*/alert_* series on /metrics.prom.
	// Empty (the default) disables the aggregation plane entirely.
	ReplicaHTTP []string
	// ScrapeInterval is the ledger scrape cadence (default 1 s).
	ScrapeInterval time.Duration
	// AlertRules are evaluated against the merged ledger every scrape;
	// nil runs ledger.DefaultRules() (pass an empty non-nil slice to
	// scrape without alerting).
	AlertRules []ledger.Rule
}

func (o Options) withDefaults() Options {
	if o.CoalesceRows <= 0 {
		o.CoalesceRows = 64
	}
	if o.CoalesceRows > serve.MaxBatch {
		o.CoalesceRows = serve.MaxBatch
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 2
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 1024
	}
	if o.MaxHops <= 0 {
		o.MaxHops = 1
	}
	if o.Dial.Timeout <= 0 {
		o.Dial.Timeout = time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ScrapeInterval <= 0 {
		o.ScrapeInterval = time.Second
	}
	if o.AlertRules == nil {
		o.AlertRules = ledger.DefaultRules()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// frame is one Decide call in flight, pooled: the caller's rows, the
// window of its decs the answers land in, and the parts still out.
type frame struct {
	rows  []serve.Request
	out   []serve.Decision
	tc    telemetry.TraceContext
	enq   time.Time
	synth int32 // GPU id its unkeyed rows share (cluster = row index); < 0 until drawn
	// pending counts parts not yet answered, plus one the splitter holds
	// while it enqueues. A part that takes it to zero sends on done (cap
	// 1, never blocks); nothing touches the frame after its decrement.
	pending atomic.Int32
	done    chan struct{}
	all     []int32 // 0, 1, 2, ...: the first split's row indexes
	buckets []*part // split scratch: one per shard, last for unowned rows

	hopMu sync.Mutex // guards hop; taken for sampled frames only
	hop   serve.HopTimings
}

func (f *frame) mergeHop(h serve.HopTimings) {
	f.hopMu.Lock()
	f.hop.Merge(h)
	f.hopMu.Unlock()
}

// part is the unit of routing: the rows of one frame that one replica
// owns. It is admitted, shed, dispatched, rerouted and answered whole,
// and its decisions go straight into f.out[idx[i]].
type part struct {
	f    *frame
	idx  []int32 // ascending row indexes into f.rows and f.out
	hops int
}

// shard is one replica's routing state: the admission queue and the
// dispatch slots draining it.
type shard struct {
	idx   int
	addr  string
	queue chan *part
	// queued is the rows (not parts) in queue, what QueueLen bounds. Raised
	// before the send and lowered after the receive, it never undercounts.
	queued atomic.Int64
	// gen is the model lineage generation the replica last advertised in
	// hello negotiation; -1 until a hello has been seen. Refreshed on
	// every dispatch-slot connect and on every prober tick (healthy
	// replicas included), so a replica left behind by an online promotion
	// is flagged within one probe interval.
	gen atomic.Int64
}

// Router is the fleet serving tier: it owns the consistent-hash ring,
// one queue and MaxInFlight dispatch slots per replica, admission control,
// and the front-end transport. Frames enter via Decide (in-process) or
// ServeConn (wire), are split once by their rows' GPUs into one part per
// owning replica, travel as multi-row frames, and always come back with a
// decision per row — model, rerouted, or shed-to-fallback — never an
// error.
type Router struct {
	opts    Options
	table   *clockdomain.Table // TitanX: the operating points shed rows fall back to
	ring    *Ring
	metrics *Metrics
	shards  []*shard

	stop    chan struct{}
	stopMu  sync.RWMutex // guards stopped against racing submits
	stopped bool
	wg      sync.WaitGroup

	synthSeq atomic.Int64 // synthetic identity for unkeyed rows
	frames   sync.Pool    // of *frame
	parts    sync.Pool    // of *part

	conns sync.Map // net.Conn → struct{}, for Close
	ls    sync.Map // net.Listener → struct{}, for Close

	// plane is the ledger aggregation plane, nil unless ReplicaHTTP was
	// configured.
	plane *ledgerPlane
}

// NewRouter builds and starts a router over the replica set: the ring,
// MaxInFlight dispatch slots per shard, and the health prober all start
// immediately.
func NewRouter(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	ring, err := NewRing(RingOptions{Replicas: opts.Replicas, VNodes: opts.VNodes, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	names := ring.Replicas()
	rt := &Router{
		opts:    opts,
		table:   clockdomain.TitanX(),
		ring:    ring,
		metrics: newMetrics(telemetry.NewRegistry(), len(names)),
		shards:  make([]*shard, len(names)),
		stop:    make(chan struct{}),
	}
	rt.frames.New = func() any {
		return &frame{done: make(chan struct{}, 1), buckets: make([]*part, len(names)+1)}
	}
	rt.parts.New = func() any { return new(part) }
	rt.metrics.Healthy.Set(float64(ring.Healthy()))
	for i, addr := range names {
		// A part holds at least one row, so QueueLen parts always fit.
		s := &shard{idx: i, addr: addr, queue: make(chan *part, opts.QueueLen)}
		s.gen.Store(-1)
		rt.shards[i] = s
		rt.wg.Add(opts.MaxInFlight)
		for d := 0; d < opts.MaxInFlight; d++ {
			go rt.dispatch(s)
		}
	}
	rt.wg.Add(1)
	go rt.probe()
	if len(opts.ReplicaHTTP) > 0 {
		rt.plane = newLedgerPlane(rt, opts)
		rt.wg.Add(1)
		go rt.plane.loop()
	}
	return rt, nil
}

// Ring exposes the router's consistent-hash ring.
func (rt *Router) Ring() *Ring { return rt.ring }

// Metrics exposes the router's counters.
func (rt *Router) Metrics() *Metrics { return rt.metrics }

// Telemetry exposes the registry hosting the fleet metrics.
func (rt *Router) Telemetry() *telemetry.Registry { return rt.metrics.Registry() }

// NumShards returns the replica count.
func (rt *Router) NumShards() int { return len(rt.shards) }

// Decide routes every row through the fleet and appends one Decision per
// row to decs, in row order. It blocks until all rows are answered; rows
// the fleet cannot serve in time come back shed to the analytical
// fallback (Reason == ReasonShed), never as an error. Rows without a
// (gpu, cluster) identity share a synthetic GPU so they still shard.
func (rt *Router) Decide(rows []serve.Request, decs []serve.Decision) []serve.Decision {
	decs, _ = rt.DecideTraced(rows, decs, telemetry.TraceContext{})
	return decs
}

// DecideTraced is Decide carrying distributed-trace context: the parts
// of a sampled frame emit router.queue/coalesce/dispatch spans, propagate
// the context to the replicas, and return the frame's per-hop latency
// attribution (merged across parts as a per-field max). A zero context
// is exactly Decide.
func (rt *Router) DecideTraced(rows []serve.Request, decs []serve.Decision, tc telemetry.TraceContext) ([]serve.Decision, serve.HopTimings) {
	rt.metrics.Requests.Add(1)
	base := len(decs)
	decs = append(decs, make([]serve.Decision, len(rows))...)
	f := rt.frames.Get().(*frame)
	f.rows, f.out, f.tc, f.enq, f.synth = rows, decs[base:], tc, time.Now(), -1
	f.pending.Store(1)
	for len(f.all) < len(rows) {
		f.all = append(f.all, int32(len(f.all)))
	}
	rt.stopMu.RLock()
	rt.split(f, f.all[:len(rows)], 0, f.buckets)
	rt.stopMu.RUnlock()
	if f.pending.Add(-1) != 0 {
		<-f.done
	}
	hops := f.hop
	f.rows, f.out, f.hop = nil, nil, serve.HopTimings{}
	rt.frames.Put(f)
	return decs, hops
}

// split buckets rows idx of f by the replica that owns each row's GPU (the
// last bucket when none does) and submits one part per bucket — and one
// more whenever a bucket reaches serve.MaxBatch rows, all a wire frame
// carries. A run of rows on one GPU costs one ring lookup; unkeyed rows
// all carry f.synth. Callers hold stopMu.RLock and own buckets, which
// split leaves empty.
func (rt *Router) split(f *frame, idx []int32, hops int, buckets []*part) {
	lastGPU, owner := int32(-1), 0
	for _, i := range idx {
		gpu := f.rows[i].GPU
		if gpu < 0 || f.rows[i].Cluster < 0 {
			if f.synth < 0 {
				f.synth = int32(rt.synthSeq.Add(1) % (1 << 30))
			}
			gpu = f.synth
		}
		if gpu != lastGPU {
			var ok bool
			if owner, ok = rt.ring.Lookup(Key(rt.ring.Seed(), gpu, 0)); !ok {
				owner = len(rt.shards)
			}
			lastGPU = gpu
		}
		p := buckets[owner]
		if p == nil {
			p = rt.parts.Get().(*part)
			p.f, p.hops = f, hops
			buckets[owner] = p
		}
		if p.idx = append(p.idx, i); len(p.idx) == serve.MaxBatch {
			buckets[owner] = nil
			rt.submit(owner, p)
		}
	}
	for owner, p := range buckets {
		if p != nil {
			buckets[owner] = nil
			rt.submit(owner, p)
		}
	}
}

// submit hands one part to its owner's admission queue, shedding it on a
// queue without room, an empty ring, or a closing router. After submit
// the part is guaranteed to complete. Callers hold stopMu.RLock.
func (rt *Router) submit(owner int, p *part) {
	p.f.pending.Add(1)
	cause := ShedQueueFull
	switch n := int64(len(p.idx)); {
	case rt.stopped:
		cause = ShedShutdown
	case owner == len(rt.shards):
		cause = ShedNoReplica
	default:
		s := rt.shards[owner]
		if q := s.queued.Add(n); q <= int64(rt.opts.QueueLen) || q == n {
			s.queue <- p // never blocks: reserved rows bound queued parts; q == n found none
			rt.metrics.Rows.Add(n)
			rt.metrics.Admitted(n)
			return
		}
		s.queued.Add(-n)
	}
	rt.shed(p, cause)
}

// shed answers one part from the analytical fallback and counts why.
// Shed rows carry ReasonShed and no shard, so clients and the flight
// recorder can tell an admission-control answer from a model answer.
func (rt *Router) shed(p *part, cause string) {
	f := p.f
	for _, i := range p.idx {
		level, pred := baselines.FallbackDecision(rt.table, f.rows[i].Features, f.rows[i].Preset)
		f.out[i] = serve.Decision{
			Level: level, Reason: provenance.ReasonShed, PredInstr: pred,
			Shard: -1, Rerouted: p.hops > 0,
		}
	}
	rt.metrics.Shed(cause, int64(len(p.idx)))
	if f.tc.Sampled() {
		now := time.Now()
		f.mergeHop(serve.HopTimings{QueueUs: serve.DurUs32(now.Sub(f.enq))})
		rt.opts.Tracer.StartSpanAt(f.tc, "router.shed", f.enq, "cause", cause).EndAt(now)
	}
	rt.finish(p)
}

// finish retires an answered part; its frame's last one wakes the caller.
func (rt *Router) finish(p *part) {
	f := p.f
	p.f, p.idx = nil, p.idx[:0]
	rt.parts.Put(p)
	if f.pending.Add(-1) == 0 {
		f.done <- struct{}{}
	}
}

// dispatch is one in-flight slot for a shard: it owns one connection,
// blocks on the shard queue for a first part, merges whatever else is
// already queued and still fits in CoalesceRows — so frames grow only
// while every slot is busy — and sends the lot as one frame. A failed
// round trip marks the replica unhealthy and reroutes the parts through
// the ring; parts past their queue deadline shed before any bytes move.
func (rt *Router) dispatch(s *shard) {
	defer rt.wg.Done()
	var (
		cl      *serve.Client
		rows    []serve.Request
		live    []*part
		carry   *part                             // taken off the queue, but did not fit the last frame
		buckets = make([]*part, len(rt.shards)+1) // reroute scratch
	)
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	for {
		p := carry
		carry = nil
		if p == nil {
			select {
			case p = <-s.queue:
				s.queued.Add(-int64(len(p.idx)))
			case <-rt.stop:
				return // Close sheds what is still queued
			}
		}
		// One clock reading ends every part's queue wait (for a part carried
		// over, the round trip it sat out included) and checks its deadline:
		// a late DVFS decision is worse than a safe analytical one.
		deq := time.Now()
		live = live[:0]
		for n := 0; p != nil; {
			switch dl := rt.opts.QueueDeadline; {
			case dl > 0 && deq.Sub(p.f.enq) > dl:
				rt.shed(p, ShedDeadline)
			case n > 0 && n+len(p.idx) > rt.opts.CoalesceRows:
				carry = p
			default:
				live = append(live, p)
				n += len(p.idx)
			}
			p = nil
			if carry == nil && n < rt.opts.CoalesceRows {
				select {
				case p = <-s.queue:
					s.queued.Add(-int64(len(p.idx)))
				default:
				}
			}
		}
		if len(live) == 0 {
			continue
		}

		if cl == nil {
			var err error
			if cl, err = rt.dialReplica(s); err != nil {
				rt.replicaFailed(s, live, err, buckets)
				continue
			}
		}
		// The first sampled part's context parents this frame's dispatch
		// span and rides to the replica (merged parts share one downstream
		// trace; each still gets its own queue and coalesce spans below).
		var parentTC telemetry.TraceContext
		rows = rows[:0]
		for _, p := range live {
			f := p.f
			if !parentTC.Sampled() && f.tc.Sampled() {
				parentTC = f.tc
			}
			for _, i := range p.idx {
				r := f.rows[i]
				if r.GPU < 0 || r.Cluster < 0 {
					r.GPU, r.Cluster = f.synth, i
				}
				rows = append(rows, r)
			}
		}
		dspSp := rt.opts.Tracer.StartSpan(parentTC, "router.dispatch", "shard", s.addr)
		childTC := parentTC // zero unless sampled: an untraced frame
		if dspSp != nil {
			childTC = dspSp.Context()
		}
		start := time.Now()
		decs, repHops, err := cl.DecideKeyedTraced(rows, childTC)
		rtt := time.Since(start)
		dspSp.End()
		if err != nil {
			cl.Close()
			cl = nil
			rt.replicaFailed(s, live, err, buckets)
			continue
		}
		rt.metrics.ObserveDispatchTraced(s.idx, len(rows), rtt, parentTC.TraceID)
		// What the replica's answer said it reads is what the next frame to
		// it carries. It moves on a connection's first answer, a model swap
		// or a plane armed, so the gauge both slots share is mostly only read.
		if g, n := rt.metrics.shards[s.idx].Columns, float64(bits.OnesCount64(cl.Columns())); g.Value() != n {
			g.Set(n)
		}
		for _, p := range live {
			f := p.f
			for _, i := range p.idx {
				d := &f.out[i]
				*d, decs = decs[0], decs[1:]
				d.Shard, d.Rerouted = s.idx, p.hops > 0
			}
			if f.tc.Sampled() {
				f.mergeHop(serve.HopTimings{
					QueueUs:    serve.DurUs32(deq.Sub(f.enq)),
					CoalesceUs: serve.DurUs32(start.Sub(deq)),
					DispatchUs: serve.DurUs32(rtt),
					InferUs:    repHops.InferUs,
				})
				rt.opts.Tracer.StartSpanAt(f.tc, "router.queue", f.enq).EndAt(deq)
				rt.opts.Tracer.StartSpanAt(f.tc, "router.coalesce", deq).EndAt(start)
			}
			rt.finish(p)
		}
	}
}

// dialReplica connects one dispatch slot to its replica and negotiates
// the protocol.
func (rt *Router) dialReplica(s *shard) (*serve.Client, error) {
	cl, err := serve.DialContext(context.Background(), s.addr, rt.opts.Dial)
	if err != nil {
		return nil, err
	}
	hello, err := cl.Negotiate()
	if err != nil {
		cl.Close()
		return nil, err
	}
	rt.noteGeneration(s, hello)
	return cl, nil
}

// noteGeneration records the model lineage generation a replica
// advertised in hello negotiation.
func (rt *Router) noteGeneration(s *shard, hello serve.Hello) {
	s.gen.Store(int64(hello.Generation))
	rt.metrics.shards[s.idx].Generation.Set(float64(hello.Generation))
}

// replicaFailed marks a shard unhealthy and re-splits its in-flight parts
// through the ring (which now skips it, so their rows fan out to the new
// owners) into the calling slot's buckets. Parts out of hops shed instead.
func (rt *Router) replicaFailed(s *shard, parts []*part, err error, buckets []*part) {
	rt.metrics.shards[s.idx].Errors.Add(1)
	if rt.ring.SetHealthy(s.idx, false) {
		rt.metrics.Down.Add(1)
		rt.metrics.Healthy.Set(float64(rt.ring.Healthy()))
		rt.opts.Logf("fleet: replica %s (shard %d) down: %v", s.addr, s.idx, err)
	}
	rt.stopMu.RLock()
	defer rt.stopMu.RUnlock()
	for _, p := range parts {
		if p.hops >= rt.opts.MaxHops {
			rt.shed(p, ShedNoReplica)
			continue
		}
		rt.metrics.Rerouted.Add(int64(len(p.idx)))
		rt.opts.Tracer.StartSpan(p.f.tc, "router.reroute", "from", s.addr).End()
		rt.split(p.f, p.idx, p.hops+1, buckets)
		rt.finish(p) // its successors hold the frame open
	}
}

// probe periodically re-dials every replica: unhealthy ones are restored
// to the ring on a successful re-negotiation (moving their keys back
// home), and healthy ones have their advertised model lineage refreshed
// so a replica serving a stale generation is flagged within one probe
// interval even when no dispatch slot has reconnected to it.
func (rt *Router) probe() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
		for _, s := range rt.shards {
			healthy := rt.ring.IsHealthy(s.idx)
			cl, err := serve.DialContext(context.Background(), s.addr, rt.opts.Dial)
			if err != nil {
				// An unreachable healthy replica is the dispatch path's
				// problem (it owns failure detection); an unreachable
				// unhealthy one just stays out of the ring.
				continue
			}
			// Recovery and lineage refresh both re-negotiate instead of
			// trusting a bare TCP accept: a replica that cannot speak the
			// protocol stays out of the ring, and the hello is where the
			// generation rides.
			hello, err := cl.Negotiate()
			cl.Close()
			if err != nil {
				continue
			}
			rt.noteGeneration(s, hello)
			if !healthy && rt.ring.SetHealthy(s.idx, true) {
				rt.metrics.Up.Add(1)
				rt.metrics.Healthy.Set(float64(rt.ring.Healthy()))
				rt.opts.Logf("fleet: replica %s (shard %d) recovered", s.addr, s.idx)
			}
		}
	}
}

// Close shuts the router down: no new admissions, queued parts shed to
// the fallback, listeners and front-end connections closed, and all
// dispatch goroutines joined once the frames on the wire are answered.
func (rt *Router) Close() {
	rt.stopMu.Lock()
	if rt.stopped {
		rt.stopMu.Unlock()
		return
	}
	rt.stopped = true
	rt.stopMu.Unlock()
	close(rt.stop)
	// stopped flipped first, so nothing enters a queue any more and one
	// pass empties it for good; a slot that wins a part answers it itself.
	for _, s := range rt.shards {
		for len(s.queue) > 0 {
			select {
			case p := <-s.queue:
				rt.shed(p, ShedShutdown)
			default:
			}
		}
	}
	rt.ls.Range(func(k, _ any) bool {
		k.(net.Listener).Close()
		return true
	})
	rt.conns.Range(func(k, _ any) bool {
		k.(net.Conn).Close()
		return true
	})
	rt.wg.Wait()
}

// ServeTCP accepts front-end connections on l, one goroutine per
// connection, until the listener closes.
func (rt *Router) ServeTCP(l net.Listener) error {
	rt.ls.Store(l, struct{}{})
	defer rt.ls.Delete(l)
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go rt.ServeConn(conn)
	}
}

// ServeConn speaks the binary protocol to one client, with the router as
// the serve.Endpoint behind it: request frames are split by row key
// through the ring, a hello is answered with the router flag and the
// shard count, and a peer that breaks the protocol gets a structured
// error frame before the connection drops, exactly like a single daemon.
func (rt *Router) ServeConn(conn net.Conn) {
	rt.conns.Store(conn, struct{}{})
	defer func() {
		rt.conns.Delete(conn)
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var fs serve.FrameScratch
	var frame []byte
	for {
		var err error
		if frame, err = serve.ReadFrame(br, frame); err != nil {
			if refusal := fs.Refuse(err); refusal != nil { // an oversized length prefix
				serve.WriteFrame(bw, refusal) // best effort: the connection drops either way
			}
			return // anything else: the client hung up
		}
		reply, _, _, err := fs.Answer(frame, rt, time.Now())
		if serve.WriteFrame(bw, reply) != nil || err != nil {
			return
		}
	}
}

// HelloAck describes the router in negotiation.
func (rt *Router) HelloAck() serve.Hello {
	return serve.Hello{Router: true, Shards: len(rt.shards)}
}

// DecideFrame answers one front-end request frame: DecideTraced, which
// takes its own clock reading on entry. The router asks its callers for
// every column — it sheds from the analytical fallback itself and cannot
// know what each replica behind it reads — and its dispatch slots'
// clients project per replica connection on their own.
func (rt *Router) DecideFrame(rows []serve.Request, columns uint64, decs []serve.Decision, tc telemetry.TraceContext, _ time.Time) ([]serve.Decision, serve.HopTimings, uint64) {
	if columns != serve.AllColumns {
		rt.metrics.ColumnResends.Add(1)
		return decs, serve.HopTimings{}, serve.AllColumns
	}
	decs, hops := rt.DecideTraced(rows, decs, tc)
	return decs, hops, serve.AllColumns
}

// Handler returns the router's HTTP surface — read-out only, and read the
// way a daemon's is:
//
//	GET /metrics.prom  fleet counters in Prometheus text exposition
//	                   (telemetry.Registry.Mount)
//	GET /telemetry     the same registry as a JSON snapshot (cmd/dvfsstat
//	                   -metrics input)
//	GET /healthz       per-replica health (503 when no replica is healthy)
//	GET /debug/ledger  merged fleet efficiency ledger (404 when disabled)
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	rt.Telemetry().Mount(mux)
	mux.HandleFunc("/debug/ledger", rt.handleLedger)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		type replica struct {
			Shard   int    `json:"shard"`
			Addr    string `json:"addr"`
			Healthy bool   `json:"healthy"`
			// Generation is the model lineage the replica last advertised
			// (-1 before any hello); Stale flags a replica whose known
			// generation trails the newest one known anywhere in the fleet
			// — the signature of an online promotion that missed it.
			Generation int  `json:"generation"`
			Stale      bool `json:"stale,omitempty"`
		}
		reps := make([]replica, len(rt.shards))
		maxGen := int64(-1)
		for _, s := range rt.shards {
			if g := s.gen.Load(); g > maxGen {
				maxGen = g
			}
		}
		for i, s := range rt.shards {
			g := s.gen.Load()
			reps[i] = replica{
				Shard:      i,
				Addr:       s.addr,
				Healthy:    rt.ring.IsHealthy(i),
				Generation: int(g),
				Stale:      g >= 0 && g < maxGen,
			}
		}
		w.Header().Set("Content-Type", telemetry.ContentTypeJSON)
		if rt.ring.Healthy() == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(struct {
			Healthy  int       `json:"healthy_replicas"`
			Replicas []replica `json:"replicas"`
		}{rt.ring.Healthy(), reps})
	})
	return mux
}
