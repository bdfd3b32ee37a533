package fleet

import (
	"strconv"
	"time"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/telemetry"
)

// Shed causes, the `cause` label on fleet_shed_rows_total. Admission
// control refuses work for exactly these reasons; anything else is a bug.
const (
	ShedQueueFull = "queue-full" // the shard's queue was full at submit
	ShedDeadline  = "deadline"   // the row waited past QueueDeadline
	ShedNoReplica = "no-replica" // no healthy replica on the ring
	ShedShutdown  = "shutdown"   // the router was closing
)

// shedCauses enumerates the label values so all series exist from the
// first scrape (a zero shed counter is a signal, not a missing metric).
var shedCauses = []string{ShedQueueFull, ShedDeadline, ShedNoReplica, ShedShutdown}

// batchHistBuckets sizes the coalesced-batch-size histogram: bucket i
// counts batches of [2^(i-1), 2^i) rows, and MaxBatch is 1024 = 2^10.
const batchHistBuckets = 12

// The fleet shed-rate SLO: at most sloShedBudget of admitted-or-shed rows
// may be refused by admission control over the rolling sloShedWindow.
// Exposed as slo_burn_rate{slo="fleet-shed"} (1.0 = shedding exactly at
// budget).
const (
	sloShedBudget = 0.01
	sloShedWindow = time.Minute
)

// Metrics aggregates the router's counters on a telemetry.Registry, so
// the fleet tier exposes the same /metrics.prom + /telemetry surface as a
// single daemon. Handles are resolved up front; every hot
// path update is one atomic.
type Metrics struct {
	Requests *telemetry.Counter // frames / Decide calls answered
	Rows     *telemetry.Counter // rows admitted into shard queues
	Rerouted *telemetry.Counter // rows re-submitted after a replica failure
	Down     *telemetry.Counter // healthy→unhealthy replica transitions
	Up       *telemetry.Counter // unhealthy→healthy replica transitions
	Healthy  *telemetry.Gauge   // healthy replicas right now

	// ColumnResends counts front-end frames sent back unanswered
	// (serve.StatusColumns) for carrying fewer than all columns, under the
	// name the daemon counts its own; serve_request_columns beside it
	// reads counters.Num for a router, always.
	ColumnResends *telemetry.Counter

	shed      map[string]*telemetry.Counter // by cause
	shedSLO   *telemetry.SLO                // shed-rate error budget
	batchRows *telemetry.Histogram          // rows per dispatched batch

	shards []shardMetrics
	reg    *telemetry.Registry
}

// shardMetrics is the per-shard slice of the fleet counters — the
// per-shard throughput and tail latency the load reports print.
type shardMetrics struct {
	Rows    *telemetry.Counter   // rows dispatched to this replica
	Errors  *telemetry.Counter   // failed dispatches (dial or round-trip)
	Latency *telemetry.Histogram // round-trip µs per dispatched batch
	// Generation is the model lineage generation the replica last
	// advertised in hello negotiation (-1 until one is known), so a fleet
	// dashboard can spot a replica serving a stale model after an online
	// promotion rolled through the rest of the fleet.
	Generation *telemetry.Gauge
	// Columns is how many of the counters.Num columns the last frame's
	// answer said the replica reads — the width of the next frame a
	// dispatch slot sends it (0 until one has been answered).
	Columns *telemetry.Gauge
}

func newMetrics(reg *telemetry.Registry, nShards int) *Metrics {
	m := &Metrics{
		Requests: reg.Counter("fleet_requests_total"),
		Rows:     reg.Counter("fleet_rows_total"),
		Rerouted: reg.Counter("fleet_rerouted_rows_total"),
		Down:     reg.Counter("fleet_replica_down_total"),
		Up:       reg.Counter("fleet_replica_up_total"),
		Healthy:  reg.Gauge("fleet_healthy_replicas"),
		shed:     make(map[string]*telemetry.Counter, len(shedCauses)),
		shedSLO:  telemetry.NewSLO(reg, "fleet-shed", sloShedBudget, sloShedWindow),
		batchRows: reg.HistogramBuckets("fleet_batch_rows",
			batchHistBuckets),
		shards: make([]shardMetrics, nShards),
		reg:    reg,

		ColumnResends: reg.Counter("serve_column_resends_total"),
	}
	reg.Gauge("serve_request_columns").Set(counters.Num)
	for _, cause := range shedCauses {
		m.shed[cause] = reg.Counter("fleet_shed_rows_total", "cause", cause)
	}
	for i := range m.shards {
		label := strconv.Itoa(i)
		m.shards[i] = shardMetrics{
			Rows:       reg.Counter("fleet_shard_rows_total", "shard", label),
			Errors:     reg.Counter("fleet_shard_errors_total", "shard", label),
			Latency:    reg.Histogram("fleet_shard_latency_us", "shard", label),
			Generation: reg.Gauge("fleet_replica_generation", "shard", label),
			Columns:    reg.Gauge("fleet_shard_request_columns", "shard", label),
		}
		m.shards[i].Generation.Set(-1)
	}
	return m
}

// Registry exposes the registry hosting the fleet metrics.
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

// Shed counts n refused rows against their cause and the shed-rate SLO.
func (m *Metrics) Shed(cause string, n int64) {
	if c, ok := m.shed[cause]; ok {
		c.Add(n)
	}
	m.shedSLO.ObserveN(0, n)
}

// Admitted counts n rows accepted into a shard queue toward the
// shed-rate SLO denominator.
func (m *Metrics) Admitted(n int64) { m.shedSLO.ObserveN(n, 0) }

// ShedTotal sums the shed counters across causes.
func (m *Metrics) ShedTotal() int64 {
	var n int64
	for _, c := range m.shed {
		n += c.Load()
	}
	return n
}

// ObserveDispatchTraced records one frame sent to a shard — n rows,
// round trip d — and, for a sampled frame, keeps its trace ID as the
// exemplar of the shard-latency bucket the round trip lands in.
func (m *Metrics) ObserveDispatchTraced(shard, n int, d time.Duration, traceID uint64) {
	m.batchRows.Observe(int64(n))
	m.shards[shard].Rows.Add(int64(n))
	m.shards[shard].Latency.ObserveExemplar(d.Microseconds(), traceID)
}
