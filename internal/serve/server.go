package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ssmdvfs/internal/buildinfo"
	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// Canonical fault-injection site names the serving path evaluates. All
// sites are nil-safe no-ops unless Options.Faults arms them.
const (
	// FaultDecide fires once per batch before the model runs — arm a
	// latency kind here to blow the decision budget.
	FaultDecide = "serve.decide"
	// FaultInfer fires once per row inside the model loop — arm panic or
	// error kinds to take down individual inferences.
	FaultInfer = "serve.infer"
	// FaultReload fires on model reload: error kinds fail the load,
	// corrupt kinds poison the freshly loaded model so validation must
	// catch it (the old model keeps serving either way).
	FaultReload = "serve.reload"
	// FaultSwap fires on model swap (error kinds reject the swap).
	FaultSwap = "serve.swap"
	// FaultConn fires once per binary-protocol frame; an error kind drops
	// the connection, exercising client reconnect.
	FaultConn = "serve.conn"
)

// Server is the transport layer around an Engine: it speaks the binary
// protocol (hello/ack negotiation, request and response frames, structured
// protocol errors) over TCP — the one way a decision is asked for — and
// serves the control and read-out plane (reload, health, metrics, debug
// dumps) over HTTP.
type Server struct {
	*Engine

	bufPool sync.Pool // *connBuffers

	conns sync.Map // net.Conn → chan struct{} closed when ServeConn returns, for Close
	ls    sync.Map // net.Listener → struct{}, for Close
}

// connBuffers is the pooled per-connection scratch: the frame bytes read
// and what answering them needs. It is the Endpoint its connection's
// frames are answered by, so the frame's observation can wait, pending,
// until the reply is on the wire.
type connBuffers struct {
	FrameScratch
	frame   []byte
	s       *Server
	pending *obsScratch
}

func (b *connBuffers) HelloAck() Hello { return b.s.HelloAck() }

func (b *connBuffers) DecideFrame(rows []Request, columns uint64, decs []Decision, tc telemetry.TraceContext, received time.Time) ([]Decision, HopTimings, uint64) {
	decs, hops, need, sc := b.s.decideFrame(rows, columns, decs, tc, received)
	b.pending = sc
	return decs, hops, need
}

// observePending hands the last answered frame to the armed planes.
func (b *connBuffers) observePending() {
	b.s.observe(b.pending)
	b.pending = nil
}

// NewServer builds a server around an initial model.
func NewServer(m *core.Model, opts Options) (*Server, error) {
	e, err := NewEngine(m, opts)
	if err != nil {
		return nil, err
	}
	return NewServerEngine(e), nil
}

// NewServerEngine wraps an existing decision engine in the transport
// layer — the constructor for embedders that built the Engine themselves.
func NewServerEngine(e *Engine) *Server {
	s := &Server{Engine: e}
	s.bufPool.New = func() any { return &connBuffers{s: s} }
	return s
}

// ServeConn handles one binary-protocol connection until EOF or error:
// it reads frames, lets FrameScratch.Answer turn each into its reply with
// this server as the Endpoint, and writes the reply back. A frame that
// breaks the protocol — an oversized length prefix included — is answered
// with a structured MsgError frame before the connection drops, so a
// mismatched peer gets a typed refusal instead of a hung read.
//
// The armed planes observe a frame after its reply is flushed and before
// the next frame is read, so the peer reads its answer while the planes
// run; the latency histogram times decode to flush, without them.
func (s *Server) ServeConn(conn net.Conn) {
	s.metrics.Conns.Add(1)
	done := make(chan struct{})
	s.conns.Store(conn, done)
	defer func() {
		s.conns.Delete(conn)
		s.metrics.Conns.Add(-1)
		conn.Close()
		close(done)
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	bufs := s.bufPool.Get().(*connBuffers)
	defer s.bufPool.Put(bufs)

	for {
		// An armed error fault here simulates an infrastructure-level
		// connection drop: the conn closes and the client's reconnect
		// logic takes over. Not counted as a protocol error.
		if err := s.faults.Inject(FaultConn); err != nil {
			return
		}
		frame, err := ReadFrame(br, bufs.frame)
		if err != nil {
			// EOF and closed/truncated connections are normal client
			// departures; anything else is a protocol error worth counting,
			// and an oversized prefix one worth answering.
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, net.ErrClosed) {
				s.metrics.Errors.Add(1)
			}
			if refusal := bufs.Refuse(err); refusal != nil {
				WriteFrame(bw, refusal) // best effort: the connection drops either way
			}
			return
		}
		bufs.frame = frame[:cap(frame)]

		start := time.Now()
		reply, rows, tc, err := bufs.Answer(frame, bufs, start)
		if err != nil {
			s.metrics.Errors.Add(1)
		}
		werr := WriteFrame(bw, reply)
		if werr == nil && err == nil && rows > 0 {
			s.metrics.ObserveBatchTraced(rows, time.Since(start), tc.TraceID)
		}
		bufs.observePending()
		if werr != nil || err != nil {
			return
		}
	}
}

// HelloAck describes this server in negotiation: a single-GPU daemon and
// the generation of the model it serves.
func (s *Server) HelloAck() Hello {
	return Hello{Generation: s.Generation()}
}

// DecideFrame answers one request frame from the engine, or refuses it
// unanswered when its columns do not cover what the engine reads. A frame
// with a trace context gets the inference-hop attribution for its
// response. The armed planes have observed the frame when it returns.
func (s *Server) DecideFrame(rows []Request, columns uint64, decs []Decision, tc telemetry.TraceContext, received time.Time) ([]Decision, HopTimings, uint64) {
	decs, hops, need, sc := s.decideFrame(rows, columns, decs, tc, received)
	s.observe(sc)
	return decs, hops, need
}

// decideFrame is DecideFrame with the frame's observation left pending.
func (s *Server) decideFrame(rows []Request, columns uint64, decs []Decision, tc telemetry.TraceContext, received time.Time) ([]Decision, HopTimings, uint64, *obsScratch) {
	if !tc.Valid() {
		decs, need, sc := s.decideBatchTC(rows, columns, decs, telemetry.TraceContext{})
		return decs, HopTimings{}, need, sc
	}
	if tc.Sampled() {
		// Retrospective decode span: the frame's trace context is only
		// known after decoding, so stamp the interval after the fact.
		s.tracer.StartSpanAt(tc, "engine.decode", received).EndAt(time.Now())
	}
	start := time.Now()
	decs, need, sc := s.decideBatchTC(rows, columns, decs, tc)
	return decs, HopTimings{InferUs: DurUs32(time.Since(start))}, need, sc
}

// ServeTCP accepts binary-protocol connections on l, one goroutine per
// connection, until the listener is closed.
func (s *Server) ServeTCP(l net.Listener) error {
	s.ls.Store(l, struct{}{})
	defer s.ls.Delete(l)
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// Close shuts down every listener and open binary connection, and waits
// for those connections to return: every frame they answered has been
// observed by then.
func (s *Server) Close() {
	s.ls.Range(func(k, _ any) bool {
		k.(net.Listener).Close()
		return true
	})
	s.conns.Range(func(k, done any) bool {
		k.(net.Conn).Close()
		<-done.(chan struct{})
		return true
	})
}

// Handler returns the daemon's HTTP surface — control and read-out only;
// decisions travel as binary frames (ServeTCP). cmd/ssmdvfsd adds
// /debug/pprof/* and, with -adapt, /debug/adapt.
//
//	GET  /metrics.prom  every counter, gauge and histogram in Prometheus
//	                    text exposition (telemetry.Registry.Mount)
//	GET  /telemetry     the same registry as a JSON snapshot (cmd/dvfsstat
//	                    -metrics input)
//	POST /reload        {"path":"..."} (path optional; defaults to ModelPath)
//	GET  /model         served model info
//	GET  /healthz       degradation state (healthy/degraded → 200,
//	                    fallback-only → 503; decisions are still served)
//	GET  /debug/decisions  flight-recorder ring dump (404 unless
//	                    provenance is enabled); ?n= caps the rows returned,
//	                    ?cluster=, ?reason= and ?trace= (hex trace ID, as
//	                    carried by histogram exemplars) filter them
//	GET  /debug/ledger  efficiency-ledger snapshot (404 unless a ledger is
//	                    installed)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Telemetry().Mount(mux)
	mux.HandleFunc("/reload", s.handleReload)
	mux.HandleFunc("/model", s.handleModel)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/decisions", s.handleDecisions)
	mux.HandleFunc("/debug/ledger", s.handleLedger)
	return mux
}

// handleLedger serves the efficiency ledger snapshot — the per-replica
// payload the fleet router scrapes and merges. 404 when no ledger is
// installed so scrapers can tell "disabled" from "empty".
func (s *Server) handleLedger(w http.ResponseWriter, r *http.Request) {
	l := s.Ledger()
	if l == nil {
		http.Error(w, "ledger disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", telemetry.ContentTypeJSON)
	if err := l.Snapshot().WriteJSON(w); err != nil {
		s.opts.Logf("serve: ledger write: %v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.health.State()
	w.Header().Set("Content-Type", telemetry.ContentTypeJSON)
	if st == FallbackOnly {
		// Still serving (every request gets a fallback decision), but
		// signal orchestrators that the model path is down.
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	lin := s.Model().Lineage
	json.NewEncoder(w).Encode(struct {
		State               string            `json:"state"`
		Backend             string            `json:"backend"`
		Generation          int               `json:"generation,omitempty"`
		ModelSource         string            `json:"model_source,omitempty"`
		ConsecutiveFailures int64             `json:"consecutive_failures,omitempty"`
		FallbackDecisions   int64             `json:"fallback_decisions,omitempty"`
		RecoveredPanics     int64             `json:"recovered_panics,omitempty"`
		DeadlineMisses      int64             `json:"deadline_misses,omitempty"`
		Columns             []string          `json:"columns"`
		Build               map[string]string `json:"build,omitempty"`
	}{
		State:               st.String(),
		Backend:             string(s.BackendKind()),
		Generation:          lin.Generation,
		ModelSource:         lin.Source,
		ConsecutiveFailures: s.health.Failures(),
		FallbackDecisions:   s.metrics.Fallbacks.Load(),
		RecoveredPanics:     s.metrics.RecoveredPanics.Load(),
		DeadlineMisses:      s.metrics.DeadlineMisses.Load(),
		Columns:             columnNames(s.Columns()),
		Build:               buildinfo.Info(),
	})
}

// columnNames spells a column mask out as counter names, ascending.
func columnNames(columns uint64) []string {
	all := counters.Names()
	names := make([]string, 0, bits.OnesCount64(columns))
	for m := columns; m != 0; m &= m - 1 {
		names = append(names, all[bits.TrailingZeros64(m)])
	}
	return names
}

func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	s.metrics.Errors.Add(1)
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var body struct {
		Path string `json:"path"`
	}
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&body); err != nil {
			s.httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
	}
	if err := s.Reload(body.Path); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", telemetry.ContentTypeJSON)
	m := s.Model()
	json.NewEncoder(w).Encode(struct {
		Reloaded bool  `json:"reloaded"`
		Params   int   `json:"params"`
		Reloads  int64 `json:"reloads"`
	}{true, m.Params(), s.metrics.Reloads.Load()})
}

func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	if s.prov == nil {
		http.Error(w, "flight recorder not enabled (start with -flightrec)", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	n := 0
	if v := q.Get("n"); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil || n < 0 {
			s.httpError(w, http.StatusBadRequest, "bad n %q", v)
			return
		}
	}
	var cluster int64
	hasCluster := false
	if v := q.Get("cluster"); v != "" {
		var err error
		if cluster, err = strconv.ParseInt(v, 10, 32); err != nil {
			s.httpError(w, http.StatusBadRequest, "bad cluster %q", v)
			return
		}
		hasCluster = true
	}
	var reason provenance.Reason
	hasReason := false
	if v := q.Get("reason"); v != "" {
		var err error
		if reason, err = provenance.ParseReason(v); err != nil {
			s.httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		hasReason = true
	}
	var traceID uint64
	if v := q.Get("trace"); v != "" {
		var err error
		if traceID, err = telemetry.ParseTraceID(v); err != nil {
			s.httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	recs := s.prov.Snapshot(nil)
	kept := recs[:0]
	for _, rec := range recs {
		if hasCluster && rec.Cluster != int32(cluster) {
			continue
		}
		if hasReason && rec.Reason != reason {
			continue
		}
		if traceID != 0 && rec.TraceID != traceID {
			continue
		}
		kept = append(kept, rec)
	}
	if n > 0 && len(kept) > n {
		kept = kept[len(kept)-n:] // newest n, still oldest-first
	}
	w.Header().Set("Content-Type", telemetry.ContentTypeNDJSON)
	provenance.WriteRecords(w, s.provHeader(), kept)
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	m := s.Model()
	w.Header().Set("Content-Type", telemetry.ContentTypeJSON)
	json.NewEncoder(w).Encode(struct {
		Levels         int   `json:"levels"`
		Features       int   `json:"features"`
		Params         int   `json:"params"`
		FLOPs          int   `json:"flops"`
		EffectiveFLOPs int   `json:"effective_flops"`
		Reloads        int64 `json:"reloads"`
	}{m.Levels, m.NumFeatures(), m.Params(), m.FLOPs(), m.EffectiveFLOPs(), s.metrics.Reloads.Load()})
}
