// Command dvfsload is the load generator for ssmdvfsd: it replays
// per-epoch feature vectors — from a dvfstrace capture or a synthetic
// counter distribution — against a daemon's binary protocol at
// configurable concurrency and rate, then reports throughput, latency
// percentiles, and the distribution of operating-level decisions.
//
// Usage:
//
//	dvfsload -addr localhost:8091 [-conns 8] [-batch 24] [-duration 10s]
//	         [-qps 0] [-preset 0.10] [-trace trace.csv] [-seed 1] [-fleet]
//	         [-spans load-spans.jsonl] [-trace-sample 64]
//	         [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//	         [-ledger http://router:8093]
//
// With -ledger the exit report ends with the efficiency-ledger summary
// scraped from the target's /debug/ledger — fleet-wide energy saved
// versus MaxFreq, mean perf loss against the budget, and any firing
// alert rules (works against a dvfsfleet router or a single replica).
//
// With -trace-sample (or -spans, which implies it) 1 in N batches is
// traced end to end: the frame carries a trace context, every hop emits
// spans, and the exit report adds a per-hop latency table
// (queue/coalesce/network/inference) plus an example trace ID to chase
// through the merged Chrome trace or /debug/decisions?trace=.
//
// With -trace the feed is a cycled replay of a cmd/dvfstrace
// CSV: each row is the 47-counter vector the simulator's controller saw
// for that epoch, so a -ledger replica prices it as the run did. Without
// it, synthetic epochs are drawn from the memory-boundedness family used
// across the project's tests. -qps caps total decisions/second
// (0 = unlimited: measure peak throughput).
//
// There is one frame, and a row's (gpu, cluster) identity in it is
// optional. Without -fleet rows carry none (-1/-1): a daemon answers them
// as they stand, a router shards each frame under a synthetic key. With
// -fleet every frame carries one (gpu, cluster) key: the GPU is the
// connection's index and the cluster steps with the frame. The router's
// ring places a GPU, so all of a connection's frames go to the shard that
// owns its GPU and their latency attributes to it, and the exit summary
// adds a per-shard latency table (p50/p99/p999) plus shed and reroute
// counts. -fleet chooses the keys and that report, nothing else.
//
// Rows are built 47 counters wide; what goes on the wire is the columns
// the peer's last response said it reads, which the exit report prints as
// "columns sent: 8 of 47 (80 B/row)" for a daemon serving the compressed
// model with no plane armed. A router asks for all 47 (its own replica
// connections project: fleet_shard_request_columns on its /metrics.prom),
// as does a daemon run with -flightrec or -ledger. No flag turns it off.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"ssmdvfs/internal/buildinfo"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/epochtrace"
	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/fleet"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/serve"
	"ssmdvfs/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:8091", "daemon binary-protocol address")
		conns     = flag.Int("conns", 8, "concurrent connections")
		batch     = flag.Int("batch", 24, "decisions per request frame (1 = per-epoch latency mode)")
		duration  = flag.Duration("duration", 10*time.Second, "load duration")
		qps       = flag.Float64("qps", 0, "target total decisions/second (0 = unlimited)")
		preset    = flag.Float64("preset", 0.10, "performance-loss preset sent with every row")
		trace     = flag.String("trace", "", "replay this dvfstrace CSV instead of synthetic epochs")
		fleetMode = flag.Bool("fleet", false, "give every frame one (gpu, cluster) key and report per-shard latency (for a dvfsfleet router)")
		rows      = flag.Int("rows", 4096, "synthetic feature rows to generate (without -trace)")
		seed      = flag.Int64("seed", 1, "synthetic feature seed")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-attempt connection timeout")
		retries   = flag.Int("retries", 0, "reconnect/retry attempts per failed connect or request")
		backoff   = flag.Duration("backoff", 50*time.Millisecond, "initial retry backoff (doubles per attempt, jittered)")
		faultSpec = flag.String("faults", "", "arm client-side fault injection, e.g. 'client.io:error:every=50'")
		faultSeed = flag.Int64("faults-seed", 1, "seed for rate-based fault injection")
		spansPath = flag.String("spans", "", "write client-side spans for sampled requests to this JSONL file (dvfsstat -chrome input)")
		sampleN   = flag.Int("trace-sample", 0, "trace 1 in N batches end to end (0 = off, or 64 when -spans is set)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the load run here")
		memProf   = flag.String("memprofile", "", "write a heap profile at exit here")
		ledgerURL = flag.String("ledger", "", "after the run, fetch this router/replica base URL's /debug/ledger and append the efficiency summary to the exit report (empty = off)")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("dvfsload", buildinfo.String())
		return
	}

	inj, err := faults.Parse(*faultSpec, *faultSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvfsload:", err)
		os.Exit(1)
	}
	dialOpts := serve.DialOptions{
		Timeout: *timeout,
		Retries: *retries,
		Backoff: *backoff,
		Faults:  inj,
	}

	// Tracing: a shared head-based sampler picks 1-in-N batches; sampled
	// ones go out as traced frames with client.send/recv spans under a
	// load.decide root, and their per-hop attribution feeds the exit
	// report's hop table.
	var tracer *telemetry.Tracer
	var sampler *telemetry.Sampler
	if *spansPath != "" && *sampleN == 0 {
		*sampleN = 64
	}
	if *sampleN > 0 {
		if *spansPath != "" {
			sf, err := os.Create(*spansPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dvfsload:", err)
				os.Exit(1)
			}
			defer sf.Close()
			tracer = telemetry.NewTracer(sf)
		}
		sampler = telemetry.NewSampler(*sampleN, uint64(*seed))
	}

	stopCPU, err := telemetry.StartCPUProfile(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvfsload:", err)
		os.Exit(1)
	}
	runErr := run(*addr, *conns, *batch, *duration, *qps, *preset, *trace, *rows, *seed, *fleetMode, dialOpts, tracer, sampler)
	stopCPU()
	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "dvfsload:", err)
		}
	}
	if err := telemetry.WriteHeapProfile(*memProf); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsload:", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "dvfsload:", runErr)
		os.Exit(1)
	}
	if *ledgerURL != "" {
		if err := ledgerSummary(os.Stdout, *ledgerURL); err != nil {
			fmt.Fprintln(os.Stderr, "dvfsload:", err)
			os.Exit(1)
		}
	}
}

// ledgerSummary closes the loop on what the load actually bought: it
// fetches /debug/ledger from the target (a dvfsfleet router's merged
// aggregate or a single ssmdvfsd replica's snapshot) and appends its
// headline — energy saved, perf loss, alerts — to the exit report.
func ledgerSummary(w io.Writer, url string) error {
	url = strings.TrimRight(url, "/")
	agg, isFleet, err := fleet.FetchLedger(url)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fleet.WriteLedgerHeadline(w, url, agg, isFleet)
	return nil
}

// syntheticRows draws feature vectors from the memory-boundedness family:
// a single parameter m ∈ [0,1] moves an epoch from compute-bound (high
// IPC and power, no stalls) to memory-bound (stalls and cache misses),
// covering the decision space end to end.
func syntheticRows(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		m := rng.Float64()
		feats := make([]float64, counters.Num)
		feats[counters.IdxIPC] = 2.0*(1-m) + rng.NormFloat64()*0.02
		feats[counters.IdxPPC] = 3 + 4*(1-m) + rng.NormFloat64()*0.05
		feats[counters.IdxMH] = 60000*m + rng.NormFloat64()*500
		feats[counters.IdxMHNL] = 5000*m + rng.NormFloat64()*100
		feats[counters.IdxL1CRM] = 2000*m + rng.NormFloat64()*50
		out[i] = feats
	}
	return out
}

type workerStats struct {
	latencies  []time.Duration // one per batch
	decisions  int64
	reconnects int64
	columns    uint64 // mask the connection was sending under at exit
	rerouted   int64
	traced     int64  // batches sent as traced frames
	exemplar   uint64 // first sampled trace ID, for the exit report
	levels     [64]int64
	reasons    [provenance.NumReasons]int64
	err        error
}

// shardLabel renders a shard index for metric labels; -1 (no shard:
// local shed, or a plain daemon answering keyed frames) becomes "none".
func shardLabel(shard int) string {
	if shard < 0 {
		return "none"
	}
	return fmt.Sprintf("%d", shard)
}

func run(addr string, conns, batch int, duration time.Duration, qps, preset float64, tracePath string, rows int, seed int64, fleetMode bool, dialOpts serve.DialOptions, tracer *telemetry.Tracer, sampler *telemetry.Sampler) error {
	if conns <= 0 || batch <= 0 || batch > serve.MaxBatch {
		return fmt.Errorf("need conns > 0 and batch in [1,%d]", serve.MaxBatch)
	}

	var feed func(i int) []float64
	var source string
	if tracePath != "" {
		trace, err := epochtrace.ReadFile(tracePath)
		if err != nil {
			return err
		}
		recs := trace.Records
		if len(recs) == 0 {
			return fmt.Errorf("trace %s has no epochs", tracePath)
		}
		feed = func(i int) []float64 { return recs[i%len(recs)].Counters }
		source = fmt.Sprintf("trace %s (%d epochs)", tracePath, len(recs))
	} else {
		synth := syntheticRows(rows, seed)
		feed = func(i int) []float64 { return synth[i%len(synth)] }
		source = fmt.Sprintf("synthetic (%d rows, seed %d)", rows, seed)
	}

	// Pace per connection so the target total decision rate is honoured.
	var interval time.Duration
	if qps > 0 {
		interval = time.Duration(float64(batch*conns) / qps * float64(time.Second))
	}

	fmt.Printf("dvfsload: %s → %s\n", source, addr)
	fmt.Printf("dvfsload: %d conns × batch %d for %s (preset %.0f%%, qps %s)\n",
		conns, batch, duration, preset*100,
		map[bool]string{true: fmt.Sprintf("%.0f", qps), false: "unlimited"}[qps > 0])

	// reg hosts the fleet-mode per-shard latency histograms; batch
	// latency attributes to the shard that answered the frame's key.
	reg := telemetry.NewRegistry()
	if fleetMode {
		probe, err := serve.DialContext(context.Background(), addr, dialOpts)
		if err != nil {
			return err
		}
		hello, err := probe.Negotiate()
		probe.Close()
		if err != nil {
			return fmt.Errorf("fleet negotiation: %w", err)
		}
		role := "daemon"
		if hello.Router {
			role = fmt.Sprintf("router, %d shards", hello.Shards)
		}
		fmt.Printf("dvfsload: fleet mode: negotiated v%d (%s)\n", hello.Version, role)
	}

	stats := make([]workerStats, conns)
	deadline := time.Now().Add(duration)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			cl, err := serve.DialContext(context.Background(), addr, dialOpts)
			if err != nil {
				st.err = err
				return
			}
			defer cl.Close()
			defer func() { st.reconnects, st.columns = cl.Reconnects(), cl.Columns() }()
			cl.SetTracer(tracer)
			reqs := make([]serve.Request, batch)
			next := c // offset workers into the feed so replays interleave
			var tick *time.Ticker
			if interval > 0 {
				tick = time.NewTicker(interval)
				defer tick.Stop()
			}
			for iter := 0; time.Now().Before(deadline); iter++ {
				for i := range reqs {
					reqs[i] = serve.Request{Preset: preset, Features: feed(next), GPU: -1, Cluster: -1}
					if fleetMode {
						// One (gpu, cluster) key per frame: the whole batch
						// routes to the shard that owns this connection's
						// GPU, so the frame's latency cleanly attributes to
						// the shard that answered it.
						reqs[i].GPU = int32(c)
						reqs[i].Cluster = int32(iter % 24)
					}
					next += conns
				}
				// 1-in-N batches go out as traced frames under a
				// load.decide root span; the rest take the plain path.
				var tc telemetry.TraceContext
				var rootSp *telemetry.Span
				if sampler != nil {
					if rtc := sampler.Next(); rtc.Sampled() {
						tc = rtc
						if rootSp = tracer.StartSpan(rtc, "load.decide"); rootSp != nil {
							tc = rootSp.Context()
						}
					}
				}
				t0 := time.Now()
				decs, hops, err := cl.DecideKeyedTraced(reqs, tc) // a zero tc is DecideKeyed
				lat := time.Since(t0)
				rootSp.End()
				if err != nil {
					st.err = err
					return
				}
				st.latencies = append(st.latencies, lat)
				st.decisions += int64(len(decs))
				if fleetMode && len(decs) > 0 {
					reg.Histogram("load_shard_latency_us", "shard", shardLabel(decs[0].Shard)).
						Observe(lat.Microseconds())
				}
				if tc.Sampled() {
					st.traced++
					if st.exemplar == 0 {
						st.exemplar = tc.TraceID
					}
					observeHops(reg, lat, hops)
				}
				for _, d := range decs {
					if d.Level >= 0 && d.Level < len(st.levels) {
						st.levels[d.Level]++
					}
					if int(d.Reason) < len(st.reasons) {
						st.reasons[d.Reason]++
					}
					if d.Rerouted {
						st.rerouted++
					}
				}
				if tick != nil {
					<-tick.C
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Merge.
	var all []time.Duration
	var decisions, batches, reconnects, rerouted, traced int64
	var exemplar uint64
	var levels [64]int64
	var reasons [provenance.NumReasons]int64
	masks := map[uint64]int{} // column mask → connections sending under it
	for c := range stats {
		if stats[c].err != nil {
			return fmt.Errorf("conn %d: %w", c, stats[c].err)
		}
		masks[stats[c].columns]++
		all = append(all, stats[c].latencies...)
		decisions += stats[c].decisions
		batches += int64(len(stats[c].latencies))
		reconnects += stats[c].reconnects
		rerouted += stats[c].rerouted
		traced += stats[c].traced
		if exemplar == 0 {
			exemplar = stats[c].exemplar
		}
		for l, n := range stats[c].levels {
			levels[l] += n
		}
		for r, n := range stats[c].reasons {
			reasons[r] += n
		}
	}
	if decisions == 0 {
		return fmt.Errorf("no decisions completed")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(q float64) time.Duration { return all[int(q*float64(len(all)-1))] }

	fmt.Printf("\ndecisions     %12d  (%d batches)\n", decisions, batches)
	if reconnects > 0 {
		fmt.Printf("reconnects    %12d\n", reconnects)
	}
	fmt.Printf("elapsed       %12s\n", elapsed.Round(time.Millisecond))
	fmt.Printf("throughput    %12.0f  decisions/s\n", float64(decisions)/elapsed.Seconds())
	fmt.Printf("batch latency %12s  p50\n", pct(0.50).Round(time.Microsecond))
	fmt.Printf("              %12s  p95\n", pct(0.95).Round(time.Microsecond))
	fmt.Printf("              %12s  p99\n", pct(0.99).Round(time.Microsecond))
	fmt.Printf("              %12s  max\n", all[len(all)-1].Round(time.Microsecond))
	printColumns(masks)

	fmt.Printf("\ndecision distribution:\n")
	maxLevel := 0
	for l, n := range levels {
		if n > 0 {
			maxLevel = l
		}
	}
	for l := 0; l <= maxLevel; l++ {
		frac := float64(levels[l]) / float64(decisions)
		bar := strings.Repeat("#", int(frac*40+0.5))
		fmt.Printf("  level %d %8.1f%%  %s\n", l, frac*100, bar)
	}

	// Per-reason response counts (the wire protocol labels every
	// decision): anything beyond "model" means the daemon degraded.
	fmt.Printf("\nresponse reasons:\n")
	for r, n := range reasons {
		if n == 0 {
			continue
		}
		fmt.Printf("  %-13s %12d  (%.1f%%)\n", provenance.Reason(r).String(), n,
			100*float64(n)/float64(decisions))
	}

	if fleetMode {
		printFleetSummary(reg, reasons[provenance.ReasonShed], rerouted)
	}
	if traced > 0 {
		printHopSummary(reg, traced, exemplar)
	}
	return nil
}

// printColumns reports how wide the rows on the wire were: the mask each
// connection had learned from its peer's responses by the end of the run
// (a daemon names the columns its model and fallback read; one with a
// plane armed, and any router, names all of them). One line when every
// connection agrees, one per mask otherwise — a swap mid-run, or -fleet
// connections that reconnected to something else.
func printColumns(masks map[uint64]int) {
	keys := make([]uint64, 0, len(masks))
	for m := range masks {
		keys = append(keys, m)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, m := range keys {
		n := bits.OnesCount64(m)
		fmt.Printf("columns sent: %d of %d (%d B/row)", n, counters.Num, 16+8*n)
		if len(masks) > 1 {
			fmt.Printf("  on %d conns, mask %#x", masks[m], m)
		}
		fmt.Println()
	}
}

// hopNames orders the per-hop latency table: where a traced decision's
// time went, from the router's admission queue to the replica's model.
// "network" is the remainder the attributed hops don't explain — client
// serialization plus both wire legs.
var hopNames = []string{"queue", "coalesce", "network", "inference"}

// observeHops files one traced batch's per-hop attribution into the
// report histograms.
func observeHops(reg *telemetry.Registry, total time.Duration, hops serve.HopTimings) {
	q, co, di := int64(hops.QueueUs), int64(hops.CoalesceUs), int64(hops.DispatchUs)
	network := total.Microseconds() - q - co - di
	if network < 0 {
		network = 0
	}
	reg.Histogram("load_hop_us", "hop", "queue").Observe(q)
	reg.Histogram("load_hop_us", "hop", "coalesce").Observe(co)
	reg.Histogram("load_hop_us", "hop", "network").Observe(network)
	reg.Histogram("load_hop_us", "hop", "inference").Observe(int64(hops.InferUs))
}

// printHopSummary renders where traced decisions spent their time, one
// row per hop, plus an example trace ID to chase through span files and
// /debug/decisions?trace=.
func printHopSummary(reg *telemetry.Registry, traced int64, exemplar uint64) {
	snap := reg.Snapshot()
	fmt.Printf("\nper-hop latency (%d traced batches):\n", traced)
	fmt.Printf("  %-10s %12s %12s %12s\n", "hop", "p50 µs", "p99 µs", "p999 µs")
	for _, hop := range hopNames {
		h, ok := snap.Histograms[telemetry.MetricID("load_hop_us", "hop", hop)]
		if !ok {
			continue
		}
		fmt.Printf("  %-10s %12.0f %12.0f %12.0f\n", hop,
			telemetry.Quantile(h.Buckets, 0.50),
			telemetry.Quantile(h.Buckets, 0.99),
			telemetry.Quantile(h.Buckets, 0.999))
	}
	if exemplar != 0 {
		fmt.Printf("example trace %s  (grep span files, or /debug/decisions?trace=%[1]s)\n",
			telemetry.FormatTraceID(exemplar))
	}
}

// printFleetSummary renders the fleet-mode tail of the report: one
// latency row per shard (quantiles estimated from the telemetry log-2
// histograms) plus the degradation counts the router reported on the
// wire.
func printFleetSummary(reg *telemetry.Registry, shed, rerouted int64) {
	snap := reg.Snapshot()
	ids := make([]string, 0, len(snap.Histograms))
	for id := range snap.Histograms {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	fmt.Printf("\nper-shard batch latency:\n")
	fmt.Printf("  %-8s %10s %12s %12s %12s\n", "shard", "batches", "p50 µs", "p99 µs", "p999 µs")
	for _, id := range ids {
		name, labels := telemetry.ParseID(id)
		if name != "load_shard_latency_us" {
			continue
		}
		h := snap.Histograms[id]
		fmt.Printf("  %-8s %10d %12.0f %12.0f %12.0f\n",
			labels["shard"], h.Count,
			telemetry.Quantile(h.Buckets, 0.50),
			telemetry.Quantile(h.Buckets, 0.99),
			telemetry.Quantile(h.Buckets, 0.999))
	}
	fmt.Printf("\nshed rows     %12d\n", shed)
	fmt.Printf("rerouted rows %12d\n", rerouted)
}
