package main

import (
	"fmt"
	"math"
	"sort"
)

// Workload names, in the order the parent runs them.
const (
	wServeEpoch     = "serve_epoch"
	wServeBatch     = "serve_batch"
	wServeBatchInt8 = "serve_batch_int8"
	wServeObserved  = "serve_observed"
	wFleetRoute     = "fleet_route"
	wSimClosedLoop  = "sim_closed_loop"
	wOfflineBuild   = "offline_build"
)

// metricDef names one metric. owner is the workload whose traced run
// measures a per-layer metric ("" = every workload); the other workloads
// report it as 0, meaning "this layer is not timed on this workload".
type metricDef struct {
	name, unit, owner string
}

// endToEnd is what a user of the system sees, and every workload reports
// all of it (see README.md for what one decision and one operation are on
// each workload). Bounds and directions live in BENCHMARK.json.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "decisions_per_s", unit: "1/s"},
	{name: "op_p50_us", unit: "us"},
	{name: "cpu_us_per_decision", unit: "us"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer is the ladder: one block per package under internal/.
var perLayer = []metricDef{
	// infer
	{"infer.float64.ns_per_row_b1", "ns", wServeEpoch},
	{"infer.int8.ns_per_row_b1", "ns", wServeEpoch},
	{"infer.float64.ns_per_row_b64", "ns", wServeBatch},
	{"infer.int8.ns_per_row_b64", "ns", wServeBatchInt8},
	{"infer.int8.level_flip_ppm", "ppm", wServeBatchInt8},
	{"infer.flops_per_row", "count", wServeEpoch},
	{"infer.weight_bytes", "bytes", wServeEpoch},
	// core
	{"core.inference.ns_per_row_b1", "ns", wServeEpoch},
	{"core.inference.ns_per_row_b64", "ns", wServeBatch},
	{"core.inference.allocs_per_batch", "count", wServeBatch},
	{"core.controller.decide_ns", "ns", wSimClosedLoop},
	{"core.train.initial_s", "s", wOfflineBuild},
	{"core.train.small_s", "s", wOfflineBuild},
	{"core.evaluate_ms", "ms", wOfflineBuild},
	{"core.model_accuracy", "ratio", wOfflineBuild},
	{"core.refit_ms", "ms", wServeObserved},
	// serve.engine
	{"serve.engine.ns_per_row_b1", "ns", wServeEpoch},
	{"serve.engine.ns_per_row_b64", "ns", wServeBatch},
	{"serve.engine.int8_ns_per_row_b64", "ns", wServeBatchInt8},
	{"serve.engine.allocs_per_batch", "count", wServeBatch},
	{"serve.engine.plane_none_ns_per_row", "ns", wServeObserved},
	{"serve.engine.plane_flightrec_ns_per_row", "ns", wServeObserved},
	{"serve.engine.plane_feedback_ns_per_row", "ns", wServeObserved},
	{"serve.engine.plane_ledger_ns_per_row", "ns", wServeObserved},
	{"serve.engine.plane_trace8_ns_per_row", "ns", wServeObserved},
	{"serve.engine.plane_shadow_ns_per_row", "ns", wServeObserved},
	{"serve.engine.plane_all_ns_per_row", "ns", wServeObserved},
	{"serve.engine.plane_all_ns_per_row_2g", "ns", wServeObserved},
	{"serve.engine.fallback_rows", "count", wServeBatch},
	{"serve.engine.rejected_rows", "count", wServeBatch},
	// serve.wire
	{"serve.wire.encode_request_ns_b1", "ns", wServeEpoch},
	{"serve.wire.decode_request_ns_b1", "ns", wServeEpoch},
	{"serve.wire.encode_request_ns_b64", "ns", wServeBatch},
	{"serve.wire.decode_request_ns_b64", "ns", wServeBatch},
	{"serve.wire.encode_response_ns_b64", "ns", wServeBatch},
	{"serve.wire.decode_response_ns_b64", "ns", wServeBatch},
	{"serve.wire.traced_codec_ns_b64", "ns", wServeObserved},
	{"serve.wire.request_bytes_b64", "bytes", wServeBatch},
	{"serve.wire.allocs_per_frame", "count", wServeBatch},
	// serve.transport (Server.ServeConn + Client, as the residual)
	{"serve.transport.residual_us_b1", "us", wServeEpoch},
	{"serve.transport.share_b1", "ratio", wServeEpoch},
	{"serve.transport.rtt_p999_us_b1", "us", wServeEpoch},
	{"serve.transport.syscalls_per_frame", "count", wServeEpoch},
	{"serve.transport.allocs_per_frame", "count", wServeEpoch},
	{"serve.transport.residual_us_b64", "us", wServeBatch},
	{"serve.transport.share_b64", "ratio", wServeBatch},
	// fleet
	{"fleet.router.residual_us", "us", wFleetRoute},
	{"fleet.router.rows_per_dispatch", "count", wFleetRoute},
	{"fleet.router.queue_us_p50", "us", wFleetRoute},
	{"fleet.router.coalesce_us_p50", "us", wFleetRoute},
	{"fleet.router.dispatch_us_p50", "us", wFleetRoute},
	{"fleet.router.infer_us_p50", "us", wFleetRoute},
	{"fleet.router.shed_rows", "count", wFleetRoute},
	{"fleet.router.reroutes", "count", wFleetRoute},
	{"fleet.router.allocs_per_frame", "count", wFleetRoute},
	{"fleet.ring.lookup_ns", "ns", wFleetRoute},
	// provenance, ledger, telemetry, baselines
	{"provenance.record_ns", "ns", wServeObserved},
	{"provenance.snapshot_us", "us", wServeObserved},
	{"ledger.observe_ns", "ns", wServeObserved},
	{"ledger.account_ns", "ns", wServeObserved},
	{"ledger.merge3_us", "us", wServeObserved},
	{"telemetry.histogram_observe_ns", "ns", wServeObserved},
	{"telemetry.span_ns", "ns", wServeObserved},
	{"baselines.fallback_decision_ns", "ns", wServeObserved},
	// gpusim, counters
	{"gpusim.epoch_host_ms", "ms", wSimClosedLoop},
	{"gpusim.slowdown_x", "ratio", wSimClosedLoop},
	{"gpusim.sim_instructions_per_host_s", "1/s", wSimClosedLoop},
	{"gpusim.allocs_per_epoch", "count", wSimClosedLoop},
	{"gpusim.stats_digest_match", "count", wSimClosedLoop},
	{"gpusim.clone_us", "us", wOfflineBuild},
	{"counters.from_stats_ns", "ns", wSimClosedLoop},
	// datagen, compress, experiments, asic
	{"datagen.kernel_s_median", "s", wOfflineBuild},
	{"datagen.kernel_s_max", "s", wOfflineBuild},
	{"datagen.samples", "count", wOfflineBuild},
	{"datagen.samples_per_s", "1/s", wOfflineBuild},
	{"compress.prune_s", "s", wOfflineBuild},
	{"experiments.fig4_grid_s", "s", wSimClosedLoop},
	{"experiments.norm_edp", "ratio", wSimClosedLoop},
	{"experiments.preset_violations", "count", wSimClosedLoop},
	{"asic.cycles_per_inference", "cycles", wServeEpoch},
	// bench (the harness itself; every workload)
	{"bench.op_p99_us", "us", ""},
	{"bench.trace_overhead_pct", "%", ""},
	{"bench.steal_pct", "%", ""},
	{"bench.windows_used", "count", ""},
}

// metric is one reported value, in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what one run of one workload measured.
type report struct {
	workload  string
	attempted int64
	failed    int64
	failures  []string // the first few, for the human reading stderr
	values    map[string]float64
	// quartiles holds q1/median/q3 over the timed windows (or passes) for
	// the metrics that are medians over windows.
	quartiles map[string][3]float64
	windows   int
	ladder    []ladderRow
	// int8Checked/int8Flips count the rows compared with the float64
	// reference under the int8 rule, and how many chose another level.
	int8Checked, int8Flips int64
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]float64{}, quartiles: map[string][3]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setWindows stores the median of per-window values under name and keeps
// their quartiles for the detailed JSON.
func (r *report) setWindows(name string, perWindow []float64) {
	q := quartiles(perWindow)
	r.values[name] = q[1]
	r.quartiles[name] = q
}

// fail counts n failed operations and remembers why.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// finish turns the collected values into the metric set the run must
// emit: every end-to-end metric untraced, every per-layer metric traced.
// A metric this workload owns but did not measure, or a value that is not
// a finite number, is a failure of the benchmark itself.
func (r *report) finish(trace bool) map[string]metric {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		owned := d.owner == "" || d.owner == r.workload
		switch {
		case !ok && owned:
			r.fail(1, "metric %s was not measured", d.name)
		case ok && (math.IsNaN(v) || math.IsInf(v, 0)):
			r.fail(1, "metric %s is not finite", d.name)
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// quartiles returns q1, median, q3 of v by linear interpolation (the
// "inclusive" method); zeros for an empty slice.
func quartiles(v []float64) [3]float64 {
	if len(v) == 0 {
		return [3]float64{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return [3]float64{quantileSorted(s, 0.25), quantileSorted(s, 0.5), quantileSorted(s, 0.75)}
}

func median(v []float64) float64 { return quartiles(v)[1] }

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
