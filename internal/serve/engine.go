package serve

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ssmdvfs/internal/baselines"
	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/infer"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// Options configures an Engine (and the Server wrapping it). The
// analytical fallback always decides over the TitanX operating-point
// table, and the degradation state machine's thresholds are fixed (see
// HealthState).
type Options struct {
	// ModelPath, when set, is the file Reload re-reads on SIGHUP or
	// POST /reload without an explicit path.
	ModelPath string
	// Backend is the inference backend of every model this engine serves
	// ("float64" or "int8"; empty means float64). It is the one place a
	// backend is chosen. The backend is built and parity-validated before
	// a model is swapped in, like every other reload check.
	Backend string
	// Workers bounds concurrent inference batches across all transports;
	// 0 means GOMAXPROCS.
	Workers int
	// Logf receives progress messages; nil silences them.
	Logf func(format string, args ...any)
	// Budget, when positive, bounds how long one batch may spend in the
	// model before the remaining rows degrade to the analytical fallback
	// (a deadline miss). Zero disables the budget.
	Budget time.Duration
	// Faults optionally injects deterministic faults at the Fault* sites.
	// Nil (the default) keeps the hot path allocation-free and fault-free.
	Faults *faults.Injector
}

// Engine is the transport-agnostic decision core: a hot-swappable model,
// the bounded worker pool, the degradation state machine, the analytical
// fallback, metrics, and optional decision provenance. Every caller — a
// client's binary frames, the multi-row frames a fleet router coalesces,
// an in-process embedder — feeds the same Engine, so single-row and
// batched traffic share one set of guarantees: DecideBatch never returns
// fewer decisions than rows and never panics.
type Engine struct {
	opts    Options
	model   atomic.Pointer[core.Model]
	metrics *Metrics
	sem     chan struct{}
	table   *clockdomain.Table // TitanX: the operating points the fallback decides over
	health  *health
	faults  *faults.Injector

	// prev retains the model the last successful Swap replaced — the
	// incumbent snapshot Rollback restores without touching disk, so a
	// regressing canary can be reverted even if the artifact file has
	// since been overwritten or deleted.
	prev atomic.Pointer[core.Model]

	// shadow, when SetShadow installed one, receives every model-path
	// decision (a plane that observes decisions must be armed). The
	// single-pointer holder makes install/remove atomic against in-flight
	// batches.
	shadow atomic.Pointer[shadowHolder]

	// The identity table: per (GPU, cluster) key, the last level answered
	// and, with prediction feedback on (EnablePredFeedback), the pending
	// model-path prediction and the model that made it. observeRun reads it
	// once per row whenever a plane is armed, to stamp the previous level
	// and the realized error of the previous epoch's prediction into the
	// next record. idIdx maps a key to its entry in ids.
	fbOn  bool
	idMu  sync.Mutex
	idIdx map[int64]int32
	ids   []identity

	// prov/mon, when EnableProvenance installed them, receive one record
	// per decision; both are nil-safe and nil by default, keeping the hot
	// path free of provenance work. recPool holds the per-batch
	// observation scratch so observing does not allocate.
	prov    *provenance.Recorder
	mon     *provenance.Monitor
	recPool sync.Pool // *obsScratch

	infPool sync.Pool // *core.Inference

	// tracer, when SetTracer installed one, receives engine-hop spans for
	// sampled traces. Nil tracers and unsampled requests cost nothing.
	tracer *telemetry.Tracer

	// led, when SetLedger installed one, accounts every answered decision
	// against the MaxFreq counterfactual. Nil (the default) keeps the hot
	// path ledger-free and allocation-free.
	led *ledger.Ledger

	mu sync.Mutex // serializes Reload
}

// NewEngine builds a decision engine around an initial model.
func NewEngine(m *core.Model, opts Options) (*Engine, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	kind, err := infer.ParseKind(opts.Backend)
	if err != nil {
		return nil, err
	}
	opts.Backend = string(kind)
	e := &Engine{
		opts:    opts,
		metrics: newMetrics(telemetry.NewRegistry()),
		sem:     make(chan struct{}, opts.Workers),
		table:   clockdomain.TitanX(),
		health:  new(health),
		faults:  opts.Faults,
		idIdx:   make(map[int64]int32, 256),
	}
	if err := e.applyBackend(m); err != nil {
		return nil, err
	}
	e.model.Store(m)
	e.infPool.New = func() any { return core.NewInference(m) }
	e.recPool.New = func() any { return new(obsScratch) }
	e.metrics.observeColumns(e.Columns())
	return e, nil
}

// applyBackend sets the engine's backend on a model and builds +
// parity-validates it. Called before a model is published, so the
// decision path never discovers a bad backend mid-batch. A model swapped
// in again may still be bound by in-flight batches, which read Backend:
// it already carries the engine's kind, so it is not written.
func (e *Engine) applyBackend(m *core.Model) error {
	if kind := infer.Kind(e.opts.Backend); m.Backend != kind {
		m.Backend = kind
	}
	return m.EnsureBackends()
}

// BackendKind returns the inference backend the current model serves
// with, reported on /healthz.
func (e *Engine) BackendKind() infer.Kind { return e.Model().BackendKind() }

// EnableProvenance installs a decision flight recorder of the given
// capacity (<= 0 means provenance.DefaultCapacity) and an online
// model-quality monitor registered on the engine's telemetry registry,
// seeded with the served model's training statistics. Must be called
// before the engine starts answering decisions.
func (e *Engine) EnableProvenance(capacity int, opts provenance.MonitorOptions) {
	if capacity <= 0 {
		capacity = provenance.DefaultCapacity
	}
	e.prov = provenance.NewRecorder(capacity)
	e.mon = provenance.NewMonitor(e.Telemetry(), opts)
	names, mean, std := e.Model().TrainingStats()
	e.mon.SetTrainingStats(names, mean, std)
	e.metrics.observeColumns(e.Columns())
}

// ShadowObserver receives a copy of every model-path decision the engine
// serves. Nothing in the repo installs one outside tests and bench/'s
// plane ladder: adaptation grades its shadow candidate on the flight
// recorder instead. The observer sees traffic only; its output never
// influences the served decision. Implementations must be fast and
// non-blocking: they run once the answer is out, but before DecideBatch
// returns or a connection reads its next frame.
type ShadowObserver interface {
	ObserveServed(row Request, d Decision)
}

// shadowHolder wraps the observer so installing/removing is one atomic
// pointer swap even though ShadowObserver is an interface value.
type shadowHolder struct{ obs ShadowObserver }

// SetShadow installs (or, with nil, removes) the shadow observer; its
// only callers are tests and bench/. Observation rides the planes'
// path, so EnableProvenance or SetLedger must be on for the observer to
// see traffic.
// Safe to call while serving.
func (e *Engine) SetShadow(obs ShadowObserver) {
	if obs == nil {
		e.shadow.Store(nil)
		return
	}
	e.shadow.Store(&shadowHolder{obs: obs})
}

// EnablePredFeedback turns on self-measured prediction error: the engine
// remembers the last model-path instruction prediction per (GPU,
// cluster) key and, when the same key's next epoch arrives, stamps the
// realized relative error (pred-actual)/pred into that record
// (HasPredErr). This is what feeds the quality monitor's rolling MAPE
// from live traffic alone — no offline labels — assuming each keyed
// client streams consecutive epochs, which the fleet transport does.
// Rows without identity (-1/-1 on the wire), and rows too short to carry
// the instruction counter, neither realize nor install a prediction.
// Feedback rides on provenance: without EnableProvenance it does nothing.
// Must be called before the engine starts answering decisions.
func (e *Engine) EnablePredFeedback() { e.fbOn = true }

// identity is one (GPU, cluster) key's entry in the identity table. A
// prediction is realized only against a row its own model decided: after
// a swap or rollback, the outgoing model's predictions — even those of a
// batch observed after the swap — are never charged to another model.
type identity struct {
	level int32       // the last level answered
	pred  float64     // the pending prediction, when model is set
	model *core.Model // the model that made pred; nil: no pending prediction
}

// maxIdentities bounds the identity table; a new identity arriving when
// it is full (a fleet cycling through more identities than any real GPU
// population) starts the whole table over rather than growing it.
const maxIdentities = 1 << 16

// identityLocked returns the table entry of a row's (GPU, cluster) key,
// adding a zero one if the key is new, and whether it was already there.
// Rows without identity (-1/-1) share one entry. The pointer is valid
// until the next call. The caller holds idMu.
func (e *Engine) identityLocked(row Request) (id *identity, seen bool) {
	key := int64(uint32(row.GPU))<<32 | int64(uint32(row.Cluster))
	if i, ok := e.idIdx[key]; ok {
		return &e.ids[i], true
	}
	if len(e.ids) >= maxIdentities {
		clear(e.idIdx)
		clear(e.ids) // drop the model references the old entries hold
		e.ids = e.ids[:0]
	}
	e.idIdx[key] = int32(len(e.ids))
	e.ids = append(e.ids, identity{})
	return &e.ids[len(e.ids)-1], false
}

// SetTracer installs a span tracer for the engine's decision hops
// (engine.batch / engine.inference / engine.fallback). Must be called
// before the engine starts answering decisions; a nil tracer (the
// default) keeps the hot path span-free.
func (e *Engine) SetTracer(tr *telemetry.Tracer) { e.tracer = tr }

// SetLedger installs the efficiency ledger: every answered decision is
// accounted for estimated energy delta and perf-loss versus the MaxFreq
// counterfactual. Must be called before the engine starts answering
// decisions; nil (the default) keeps the hot path ledger-free.
func (e *Engine) SetLedger(l *ledger.Ledger) {
	e.led = l
	e.metrics.observeColumns(e.Columns())
}

// Ledger returns the efficiency ledger, or nil when none is installed.
func (e *Engine) Ledger() *ledger.Ledger { return e.led }

// FlightRecorder returns the decision flight recorder, or nil when
// provenance is not enabled.
func (e *Engine) FlightRecorder() *provenance.Recorder { return e.prov }

// QualityMonitor returns the model-quality monitor, or nil when
// provenance is not enabled.
func (e *Engine) QualityMonitor() *provenance.Monitor { return e.mon }

// ReloadError is the structured error Reload returns when a new model
// cannot be swapped in; Stage says how far the reload got ("config",
// "load" — unreadable, or refused by core.Load's validation — "backend",
// "swap"). The previously served model always stays active.
type ReloadError struct {
	Path  string
	Stage string
	Err   error
}

func (e *ReloadError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("serve: reload failed at %s: %v", e.Stage, e.Err)
	}
	return fmt.Sprintf("serve: reload of %s failed at %s: %v", e.Path, e.Stage, e.Err)
}

func (e *ReloadError) Unwrap() error { return e.Err }

// Model returns the currently served model.
func (e *Engine) Model() *core.Model { return e.model.Load() }

// Metrics exposes the engine's counters.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Telemetry exposes the registry hosting the engine's metrics, for the
// Prometheus exposition and for daemons that add their own series.
func (e *Engine) Telemetry() *telemetry.Registry { return e.metrics.Registry() }

// Swap atomically replaces the served model after validating it. A model
// that fails validation is rejected and the current model keeps serving.
// In-flight batches finish on the model they started with; new batches
// see the new one immediately. The outgoing model is retained in memory
// as the rollback snapshot (see Rollback). Serialized with Reload and
// Rollback.
func (e *Engine) Swap(m *core.Model) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.swapLocked(m)
}

func (e *Engine) swapLocked(m *core.Model) error {
	if m == nil {
		return fmt.Errorf("serve: nil model")
	}
	if m.Levels > maxLevels {
		return fmt.Errorf("serve: model has %d levels, metrics support %d", m.Levels, maxLevels)
	}
	if err := e.faults.Inject(FaultSwap); err != nil {
		return err
	}
	if err := m.Validate(); err != nil {
		return err
	}
	// Backend build + parity validation is part of the swap gate: an
	// artifact whose declared (or flag-forced) backend cannot be built —
	// all-zero layer, non-finite weights, quantization that flips too
	// many decisions — is rejected and the current model keeps serving.
	if err := e.applyBackend(m); err != nil {
		return err
	}
	e.prev.Store(e.model.Load())
	e.model.Store(m)
	e.metrics.Reloads.Add(1)
	// A swap breaks every prediction chain: each identity's pending
	// prediction names the model that made it, so the incoming model is
	// never charged with the outgoing model's error (identity).
	if e.mon != nil {
		// The drift reference follows the served model: the monitor's
		// windows reset so the new model is not judged against the old
		// model's training distribution.
		names, mean, std := m.TrainingStats()
		e.mon.SetTrainingStats(names, mean, std)
	}
	return nil
}

// Generation returns the lineage generation of the currently served
// model (0 for an unversioned offline artifact) — what hello
// negotiation and /healthz advertise, and what provenance records stamp.
func (e *Engine) Generation() int { return e.Model().Lineage.Generation }

// Rollback restores the retained pre-swap snapshot — the canary escape
// hatch. It never touches disk: the snapshot was validated and its
// backend built when it originally served, so rollback cannot fail the
// way a reload can (corrupt file, missing artifact). The rolled-back
// model becomes the new retained snapshot, so a rollback is itself
// reversible. Returns the model now serving.
func (e *Engine) Rollback() (*core.Model, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.prev.Load()
	if p == nil {
		return nil, errors.New("serve: no retained model to roll back to")
	}
	cur := e.model.Load()
	e.model.Store(p)
	e.prev.Store(cur)
	e.metrics.Rollbacks.Add(1)
	if e.mon != nil {
		names, mean, std := p.TrainingStats()
		e.mon.SetTrainingStats(names, mean, std)
	}
	e.opts.Logf("serve: rolled back to retained model %s", p.Lineage)
	return p, nil
}

// Reload loads path (or the configured ModelPath when path is empty) and
// swaps it in. Concurrent reloads are serialized; decisions never block.
// Any failure — unreadable file, corrupt or truncated artifact, bad
// shapes, non-finite weights — returns a *ReloadError and keeps the old
// model serving.
func (e *Engine) Reload(path string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if path == "" {
		path = e.opts.ModelPath
	}
	if path == "" {
		return &ReloadError{Stage: "config", Err: errors.New("no model path configured")}
	}
	if err := e.faults.Inject(FaultReload); err != nil {
		e.metrics.Errors.Add(1)
		return &ReloadError{Path: path, Stage: "load", Err: err}
	}
	m, err := core.LoadFile(path)
	if err != nil {
		e.metrics.Errors.Add(1)
		return &ReloadError{Path: path, Stage: "load", Err: err}
	}
	if e.faults.Corrupt(FaultReload) {
		// Corruption fault: poison the candidate model so the swap-time
		// validation must reject it — the served model is never touched.
		m.Decision.Layers[0].W[0] = math.NaN()
	}
	if err := e.swapLocked(m); err != nil {
		e.metrics.Errors.Add(1)
		stage := "swap"
		var ie *infer.Error
		if errors.As(err, &ie) {
			stage = "backend"
		}
		return &ReloadError{Path: path, Stage: stage, Err: err}
	}
	e.opts.Logf("serve: reloaded model from %s (%d params, %d FLOPs)", path, m.Params(), m.FLOPs())
	return nil
}

// maxFeature and maxPreset bound what the row validators accept: counter
// values are per-10µs-epoch counts and watt-scale powers, presets are
// performance-loss fractions — anything beyond these magnitudes (or
// non-finite) is garbage that must not reach the model.
const (
	maxFeature = 1e15
	maxPreset  = 1e3
)

// finiteInRange rejects NaN and values outside ±limit (which also
// catches ±Inf) with two plain comparisons — NaN fails both, so no
// separate v == v test — cheap enough for the per-row hot path.
func finiteInRange(v, limit float64) bool {
	return v >= -limit && v <= limit
}

// validRow reports whether the preset and every feature that arrived —
// the columns of the frame's mask; the rest are the decoder's +0 — are
// finite and within range. Invalid rows are rejected at the transport
// boundary and answered by the analytical fallback instead of the model.
func validRow(row Request, columns uint64) bool {
	if !finiteInRange(row.Preset, maxPreset) {
		return false
	}
	if columns == AllColumns {
		for _, f := range row.Features {
			if !finiteInRange(f, maxFeature) {
				return false
			}
		}
		return true
	}
	for m := columns; m != 0; m &= m - 1 {
		if !finiteInRange(row.Features[bits.TrailingZeros64(m)], maxFeature) {
			return false
		}
	}
	return true
}

// observing reports whether a plane that stores or prices whole rows —
// flight recorder and drift monitor, with the identity table and shadow
// observer that ride on them, or the ledger — is armed.
func (e *Engine) observing() bool { return e.prov != nil || e.led != nil }

// columnsFor returns the mask of the columns a batch bound to m reads out
// of its rows: the model's features and the analytical fallback's, or
// every column while a plane is observing.
func (e *Engine) columnsFor(m *core.Model) uint64 {
	if e.observing() {
		return AllColumns
	}
	return m.Columns() | baselines.FallbackColumns
}

// Columns returns the mask of the columns the engine reads right now —
// what its responses carry and a projecting client sends.
func (e *Engine) Columns() uint64 { return e.columnsFor(e.Model()) }

// fallbackRow answers one row from the PCSTALL analytical baseline — the
// guaranteed decision when the model cannot or must not be trusted.
// reason records why the model did not answer.
func (e *Engine) fallbackRow(row Request, reason provenance.Reason) Decision {
	level, pred := baselines.FallbackDecision(e.table, row.Features, row.Preset)
	e.metrics.Fallbacks.Add(1)
	e.metrics.ObserveLevel(level)
	return Decision{Level: level, Reason: reason, PredInstr: pred, Shard: -1}
}

// obsScratch is what one batch needs to observe its decisions after they
// are answered: a record per row of the batch — its aux and latency
// staged as the row is answered, the rest filled when it is observed —
// and what every record of the batch shares. It lives in recPool between
// batches.
type obsScratch struct {
	recs []provenance.Record
	// Rows [0, n) of the batch are staged: their latency is stamped, and
	// only they are observed.
	n int
	// rows and decs are the batch's, bound once it is answered; they alias
	// the caller's buffers until the batch is observed.
	rows []Request
	decs []Decision
	// model is the model the batch loaded: the owner of the predictions
	// its rows leave in the identity table, and the generation its records
	// carry.
	model   *core.Model
	traceID uint64
}

// acquireScratch takes the observation scratch of a batch of n rows bound
// to m from recPool, or returns nil when no plane that observes decisions
// is armed.
func (e *Engine) acquireScratch(m *core.Model, n int, traceID uint64) *obsScratch {
	if !e.observing() {
		return nil
	}
	sc := e.recPool.Get().(*obsScratch)
	if len(sc.recs) < n {
		sc.recs = make([]provenance.Record, n)
	}
	sc.traceID, sc.model = traceID, m
	return sc
}

// stageAux copies what only the model path has for row k of the batch —
// the derived features and logits, which alias inference scratch — into
// the row's record; degraded rows stage nil. A nil scratch is a no-op.
func (sc *obsScratch) stageAux(k int, derived, logits []float64) {
	if sc == nil {
		return
	}
	sc.recs[k].SetDerived(derived)
	sc.recs[k].SetLogits(logits)
}

// stageRun stages the rows of the batch answered since the last stage, up
// to row hi, whose aux is staged. Their decisions are final, so the
// latency is read now, once, and stamped into their records. Rows a
// recovered panic left answered and unstaged are staged with the fallback
// row after them, at its latency. A nil scratch is a no-op.
func (sc *obsScratch) stageRun(hi int, start time.Time) {
	if sc == nil || hi == sc.n {
		return
	}
	latency := int64(time.Since(start))
	for k := sc.n; k < hi; k++ {
		sc.recs[k].LatencyNs = latency
	}
	sc.n = hi
}

// observe hands the staged rows of a batch, in row order and at most
// inferChunk at a time, to the armed planes and returns the scratch to
// recPool. Each entry point calls it once its answer is out: the
// in-process ones before they return, the TCP connection once the reply
// is flushed. A nil scratch (nothing armed) is a no-op.
func (e *Engine) observe(sc *obsScratch) {
	if sc == nil {
		return
	}
	for lo := 0; lo < sc.n; lo += inferChunk {
		e.observeRun(sc, lo, min(lo+inferChunk, sc.n))
	}
	*sc = obsScratch{recs: sc.recs}
	e.recPool.Put(sc)
}

// observeRun fills the records of staged rows [lo, hi) of the batch and
// hands them to the armed planes, each entered once for the whole run: the
// identity table is locked once, the recorder claims the run's sequence
// numbers with one add, and the monitor and the ledger each fold it in
// once.
func (e *Engine) observeRun(sc *obsScratch, lo, hi int) {
	rows, decs, recs := sc.rows[lo:hi], sc.decs[lo:hi], sc.recs[lo:hi]
	gen := uint32(sc.model.Lineage.Generation)
	for k, row := range rows {
		rec, d := &recs[k], decs[k]
		// Rows carry the requesting GPU and cluster, or -1 for none. The
		// serving transports carry no epoch identity.
		rec.GPU = row.GPU
		rec.Cluster = row.Cluster
		rec.Epoch = -1
		rec.Level = int32(d.Level)
		rec.Reason = d.Reason
		rec.Preset = row.Preset
		rec.EffPreset = row.Preset
		rec.PredInstr = d.PredInstr
		rec.PredErr, rec.HasPredErr = 0, false
		rec.TraceID = sc.traceID
		rec.ModelGen = gen
		rec.SetRaw(row.Features)
	}
	e.idMu.Lock()
	for k, row := range rows {
		rec, d := &recs[k], decs[k]
		id, seen := e.identityLocked(row)
		rec.PrevLevel, rec.HasPrevLevel = id.level, seen
		id.level = rec.Level
		if !e.fbOn || row.Cluster < 0 || len(row.Features) <= counters.IdxInstr {
			continue
		}
		// The instruction counter of the just-finished epoch is the realized
		// value the previous epoch's prediction was about. A rejected row's
		// counter may be non-finite: it realizes nothing, since one NaN
		// would hold the monitor's error sums at NaN for good.
		actual := row.Features[counters.IdxInstr]
		if id.model == sc.model && id.pred > 0 && finiteInRange(actual, maxFeature) {
			rec.PredErr = (id.pred - actual) / id.pred
			rec.HasPredErr = true
		}
		if d.Reason == provenance.ReasonModel {
			id.pred, id.model = d.PredInstr, sc.model
		} else {
			// A degraded epoch breaks the prediction chain: the next epoch's
			// counters follow a fallback decision, not a model prediction.
			id.model = nil
		}
	}
	e.idMu.Unlock()
	e.prov.RecordBatch(recs)
	e.mon.ObserveRecords(recs)
	e.led.ObserveRecords(recs)
	if h := e.shadow.Load(); h != nil {
		for k, d := range decs {
			// Shadow scoring sees model-path traffic only: degraded rows carry
			// no model prediction to compare a candidate against. Features
			// alias transport scratch — observers must copy what they keep.
			if d.Reason == provenance.ReasonModel {
				h.obs.ObserveServed(rows[k], d)
			}
		}
	}
}

// DecideBatch answers every row, appending one Decision per row to decs —
// the exported entry point transports and in-process embedders share.
// The armed planes have observed the batch when it returns.
func (e *Engine) DecideBatch(rows []Request, decs []Decision) []Decision {
	return e.decideBatch(rows, decs)
}

// decideBatch is the untraced entry point (zero trace context) for full
// rows, which cover whatever the engine reads.
func (e *Engine) decideBatch(rows []Request, decs []Decision) []Decision {
	decs, _, sc := e.decideBatchTC(rows, AllColumns, decs, telemetry.TraceContext{})
	e.observe(sc)
	return decs
}

// DecideBatchTraced is DecideBatch for a request carrying distributed-
// trace context: sampled traces get engine spans and their trace ID
// stamped into provenance records, and the returned microsecond count
// is the inference-hop attribution for the traced response frame. An
// unsampled (zero) context follows exactly the DecideBatch path.
func (e *Engine) DecideBatchTraced(rows []Request, decs []Decision, tc telemetry.TraceContext) ([]Decision, uint32) {
	start := time.Now()
	decs, _, sc := e.decideBatchTC(rows, AllColumns, decs, tc)
	us := DurUs32(time.Since(start))
	e.observe(sc)
	return decs, us
}

// decideBatchTC answers every row, appending one Decision per row to decs.
// It acquires a worker-pool slot, so at most Options.Workers batches run
// at once regardless of connection count. The contract is the degradation
// guarantee: decideBatch never returns fewer decisions than rows and
// never panics — rows the model cannot answer (invalid features,
// recovered panic, blown deadline budget, fallback-only health state)
// degrade to the analytical fallback instead.
//
// The batch's observation is left pending: sc, nil when no plane is
// armed, holds its staged records, and the caller passes it to observe
// once its answer is out.
//
// columns is the mask the rows arrived under and need the mask this batch
// reads. The model is loaded once, here: need is computed from it, a
// batch whose columns do not cover need is refused before anything is
// decided, observed or counted, and modelRows binds that same model — so
// a hot swap between the check and the inference cannot make a batch
// compute from a column it was not sent.
func (e *Engine) decideBatchTC(rows []Request, columns uint64, decs []Decision, tc telemetry.TraceContext) (out []Decision, need uint64, sc *obsScratch) {
	m := e.model.Load()
	need = e.columnsFor(m)
	e.metrics.observeColumns(need)
	if need&^columns != 0 {
		e.metrics.ColumnResends.Add(1)
		return decs, need, nil
	}

	// Span (and provenance trace-ID stamping) only for sampled traces:
	// sp is nil otherwise and every sp call below is a no-op.
	sp := e.tracer.StartSpan(tc, "engine.batch")
	defer sp.End()

	e.sem <- struct{}{}
	defer func() { <-e.sem }()

	sc = e.acquireScratch(m, len(rows), tc.TraceID)
	base := len(decs)

	start := time.Now()
	done := 0
	// tailReason labels the rows the model never reached: the health state
	// machine bypassing it entirely, or the failure modelRows reports.
	tailReason := provenance.ReasonFallbackOnly
	if e.health.useModel() {
		isp := e.tracer.StartSpan(sp.Context(), "engine.inference")
		var failed bool
		decs, done, tailReason, failed = e.modelRows(m, rows, columns, decs, start, sc)
		isp.End()
		if failed {
			e.health.recordFailure()
		} else {
			e.health.recordSuccess()
		}
	}
	if done < len(rows) {
		fsp := e.tracer.StartSpan(sp.Context(), "engine.fallback")
		for i := done; i < len(rows); i++ {
			decs = append(decs, e.fallbackRow(rows[i], tailReason))
			sc.stageAux(i, nil, nil)
			sc.stageRun(i+1, start)
		}
		fsp.End()
	}
	if sc != nil {
		sc.rows, sc.decs = rows, decs[base:]
	}
	return decs, need, sc
}

// inferChunk caps how many rows one backend ForwardBatch call takes:
// large enough to amortize the matmul over a full coalesced fleet batch,
// small enough that the budget deadline is still checked at a useful
// granularity on MaxBatch-sized frames.
const inferChunk = 64

// modelRows runs m over rows until it finishes, fails, or blows
// the budget, returning how many rows were answered (model or per-row
// fallback), the reason the unreached rows should carry, and whether the
// model path failed. A panic anywhere in the model is recovered and
// reported as a failure; the rows it did not reach are the caller's to
// degrade.
//
// Valid rows are gathered into runs and answered by one batched backend
// inference per run — this is where a coalesced multi-row fleet frame
// actually amortizes matmul cost instead of unrolling row by row. A run
// of one row is a one-row batch on the same kernel. The per-row
// semantics are unchanged: the budget is checked and FaultInfer injected
// once per row before its inference (a fault or deadline at row j still
// answers the gathered rows before j through the model), and invalid
// rows degrade individually.
func (e *Engine) modelRows(m *core.Model, rows []Request, columns uint64, decs []Decision, start time.Time, sc *obsScratch) (out []Decision, done int, failReason provenance.Reason, failed bool) {
	out = decs
	failReason = provenance.ReasonFallback
	// On panic the named returns already hold the last consistent state:
	// out has exactly the decisions of the done rows, because append and
	// the done update are adjacent non-panicking statements.
	defer func() {
		if r := recover(); r != nil {
			e.metrics.RecoveredPanics.Add(1)
			failReason = provenance.ReasonPanic
			failed = true
		}
	}()
	if err := e.faults.Inject(FaultDecide); err != nil {
		return out, 0, provenance.ReasonFallback, true
	}
	inf := e.infPool.Get().(*core.Inference)
	defer e.infPool.Put(inf)
	inf.Bind(m)
	kind := inf.Backend()
	nFeat := m.NumFeatures()
	budget := e.opts.Budget
	i := 0
	for i < len(rows) {
		if budget > 0 && time.Since(start) > budget {
			e.metrics.DeadlineMisses.Add(1)
			return out, i, provenance.ReasonDeadline, true
		}
		if !validRow(rows[i], columns) {
			e.metrics.RejectedRows.Add(1)
			out = append(out, e.fallbackRow(rows[i], provenance.ReasonRejected))
			done = i + 1
			sc.stageAux(i, nil, nil)
			sc.stageRun(done, start)
			i++
			continue
		}
		// Gather the maximal run of valid rows starting at i, spending
		// each row's budget check and FaultInfer injection as it joins —
		// exactly what the row-at-a-time loop did before its inference.
		j := i
		var stop provenance.Reason
		for j < len(rows) && j-i < inferChunk {
			if j > i { // row i was validated above
				if budget > 0 && time.Since(start) > budget {
					stop = provenance.ReasonDeadline
					break
				}
				if !validRow(rows[j], columns) {
					break
				}
			}
			if err := e.faults.Inject(FaultInfer); err != nil {
				stop = provenance.ReasonFallback
				break
			}
			j++
		}
		if n := j - i; n > 0 {
			inf.BeginBatch(n)
			for k := 0; k < n; k++ {
				inf.SetBatchRow(k, rows[i+k].Features, rows[i+k].Preset)
			}
			inf.DecideBatch()
			e.metrics.ObserveInfer(kind, n)
			for k := 0; k < n; k++ {
				level := inf.BatchLevel(k)
				e.metrics.ObserveLevel(level)
				out = append(out, Decision{Level: level, Reason: provenance.ReasonModel, PredInstr: inf.BatchPredInstr(k), Shard: -1})
				done = i + k + 1
				sc.stageAux(i+k, inf.BatchDerived(k)[:nFeat], inf.BatchLogits(k))
			}
		}
		sc.stageRun(j, start)
		i = j
		if stop != provenance.ReasonModel { // zero value: gather ran dry, no stop
			if stop == provenance.ReasonDeadline {
				e.metrics.DeadlineMisses.Add(1)
			}
			return out, i, stop, true
		}
	}
	return out, done, provenance.ReasonModel, false
}

// provHeader builds the dump header attributing recorder contents to
// this binary and the currently served model.
func (e *Engine) provHeader() provenance.Header {
	h := e.Model().ProvenanceHeader()
	h.Capacity, h.Head = e.prov.Cap(), e.prov.Head()
	return h
}
