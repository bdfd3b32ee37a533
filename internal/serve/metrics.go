package serve

import (
	"math/bits"
	"strconv"
	"time"

	"ssmdvfs/internal/infer"
	"ssmdvfs/internal/telemetry"
)

// histBuckets is the number of latency histogram buckets: bucket i counts
// decisions whose batch latency fell in [2^(i-1), 2^i) microseconds, with
// the first and last buckets absorbing the tails.
const histBuckets = 20

// maxLevels bounds the per-level decision counters; the V/f tables in
// this project have 6 levels, so 64 leaves ample room for future tables
// without resizing the handle table on model hot-swap.
const maxLevels = 64

// inferRowBuckets sizes the backend batch-size histogram: bucket i counts
// ForwardBatch calls carrying [2^(i-1), 2^i) rows, and inferChunk (64)
// rows lands in bucket 7, so 12 covers any future chunk size comfortably.
const inferRowBuckets = 12

// Metrics aggregates serving counters, hosted on a telemetry.Registry so
// the same numbers are visible through the exported handles, the
// registry's /metrics.prom and /telemetry expositions, and cmd/dvfsstat.
// Every counter, gauge and histogram update is a single atomic on a
// pre-resolved handle, and the hot path does not allocate. It takes one
// lock per batch: the latency SLO's, in ObserveBatchTraced.
type Metrics struct {
	Decisions *telemetry.Counter // rows served
	Batches   *telemetry.Counter // frames served
	Errors    *telemetry.Counter // malformed frames, bad requests, failed reloads
	Reloads   *telemetry.Counter // successful model swaps
	Rollbacks *telemetry.Counter // reversions to the retained pre-swap snapshot
	Conns     *telemetry.Gauge   // currently open binary-protocol connections

	// Degradation counters: how often the serving path fell back to the
	// analytical baseline and why.
	Fallbacks       *telemetry.Counter // decisions answered by the PCSTALL fallback
	RecoveredPanics *telemetry.Counter // model panics caught mid-batch
	RejectedRows    *telemetry.Counter // NaN/Inf/out-of-range rows rejected at the boundary
	DeadlineMisses  *telemetry.Counter // batches that blew the per-decision budget

	// Projected rows: how many of the 47 columns the engine reads right
	// now, and how many frames it sent back unanswered (StatusColumns) for
	// lacking one — a resend each, one per connection after a swap or an
	// armed plane widens the set.
	RequestColumns *telemetry.Gauge
	ColumnResends  *telemetry.Counter

	// Inference backend counters: rows and ForwardBatch calls per backend
	// kind, plus a histogram of how many rows each backend call carried —
	// the direct read on whether fleet coalescing actually reaches the
	// batched kernel or decays to row-at-a-time.
	InferRowsF64    *telemetry.Counter
	InferRowsI8     *telemetry.Counter
	InferBatchesF64 *telemetry.Counter
	InferBatchesI8  *telemetry.Counter

	levels    [maxLevels]*telemetry.Counter
	lat       *telemetry.Histogram
	inferRows *telemetry.Histogram
	latSLO    *telemetry.SLO

	reg *telemetry.Registry
}

// The serving latency SLO: batches should finish within
// sloLatencyTarget, and at most sloLatencyBudget of them may miss it
// over the rolling sloWindow. Exposed as slo_burn_rate{slo="serve-latency"}
// (1.0 = consuming the budget exactly as fast as it accrues).
const (
	sloLatencyTarget = time.Millisecond
	sloLatencyBudget = 0.001
	sloWindow        = time.Minute
)

// newMetrics resolves every handle the serving hot path needs up front.
func newMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{
		Decisions:       reg.Counter("serve_decisions_total"),
		Batches:         reg.Counter("serve_batches_total"),
		Errors:          reg.Counter("serve_errors_total"),
		Reloads:         reg.Counter("serve_reloads_total"),
		Rollbacks:       reg.Counter("serve_rollbacks_total"),
		Conns:           reg.Gauge("serve_open_conns"),
		Fallbacks:       reg.Counter("serve_fallback_decisions_total"),
		RecoveredPanics: reg.Counter("serve_recovered_panics_total"),
		RejectedRows:    reg.Counter("serve_rejected_rows_total"),
		DeadlineMisses:  reg.Counter("serve_deadline_misses_total"),
		RequestColumns:  reg.Gauge("serve_request_columns"),
		ColumnResends:   reg.Counter("serve_column_resends_total"),
		InferRowsF64:    reg.Counter("serve_infer_rows_total", "backend", string(infer.KindFloat64)),
		InferRowsI8:     reg.Counter("serve_infer_rows_total", "backend", string(infer.KindInt8)),
		InferBatchesF64: reg.Counter("serve_infer_batches_total", "backend", string(infer.KindFloat64)),
		InferBatchesI8:  reg.Counter("serve_infer_batches_total", "backend", string(infer.KindInt8)),
		lat:             reg.HistogramBuckets("serve_batch_latency_us", histBuckets),
		inferRows:       reg.HistogramBuckets("serve_infer_batch_rows", inferRowBuckets),
		latSLO:          telemetry.NewSLO(reg, "serve-latency", sloLatencyBudget, sloWindow),
		reg:             reg,
	}
	for l := range m.levels {
		m.levels[l] = reg.Counter("serve_level_decisions_total", "level", strconv.Itoa(l))
	}
	return m
}

// Registry exposes the underlying telemetry registry (Prometheus
// exposition, extra daemon-level metrics).
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

// ObserveBatchTraced records one served batch — n decisions in d — and,
// for a sampled request, keeps its trace ID as the exemplar of the
// latency bucket the batch lands in (traceID 0 is the unsampled common
// case).
func (m *Metrics) ObserveBatchTraced(n int, d time.Duration, traceID uint64) {
	m.Batches.Add(1)
	m.Decisions.Add(int64(n))
	m.lat.ObserveExemplar(d.Microseconds(), traceID)
	m.latSLO.Observe(d > sloLatencyTarget)
}

// observeColumns publishes the column set a batch reads. It runs per
// batch and the set changes per swap, so the gauge is only read unless it
// moved: the hot path never writes a line every worker shares.
func (m *Metrics) observeColumns(need uint64) {
	if n := float64(bits.OnesCount64(need)); m.RequestColumns.Value() != n {
		m.RequestColumns.Set(n)
	}
}

// ObserveLevel records one decision outcome.
func (m *Metrics) ObserveLevel(level int) {
	if level >= 0 && level < maxLevels {
		m.levels[level].Add(1)
	}
}

// ObserveInfer records one backend inference call: rows rows answered in
// a single Forward/ForwardBatch by the given backend kind.
func (m *Metrics) ObserveInfer(kind infer.Kind, rows int) {
	switch kind {
	case infer.KindInt8:
		m.InferRowsI8.Add(int64(rows))
		m.InferBatchesI8.Add(1)
	default:
		m.InferRowsF64.Add(int64(rows))
		m.InferBatchesF64.Add(1)
	}
	m.inferRows.Observe(int64(rows))
}
