// Command dvfsfleet is the fleet router in front of a set of ssmdvfsd
// replicas: it shards GPUs across the replicas on a deterministic
// consistent-hash ring (every cluster of a GPU goes to the replica that
// owns the GPU), splits every frame once into one part per owning
// replica and sends each part whole as a multi-row
// frame (a free dispatch slot takes everything queued for its
// replica, up to -coalesce-rows; nothing lingers), sheds overload
// into the analytical PCSTALL fallback under admission control, and
// reroutes around replicas that die (re-admitting them when a health
// probe succeeds).
//
// Usage:
//
//	dvfsfleet -replicas host1:8091,host2:8091,host3:8091
//	          [-tcp :8092] [-http :8093] [-vnodes 128] [-seed 1]
//	          [-backend int8] [-coalesce-rows 64]
//	          [-inflight 2] [-queue 1024] [-queue-deadline 2ms]
//	          [-max-hops 1] [-probe 250ms] [-spans fleet-spans.jsonl]
//	          [-replica-http http://host1:8090,http://host2:8090,...]
//	          [-scrape 1s] [-alerts 'burn>1.5;regress>0.5;stale>15']
//
// -replica-http arms the fleet efficiency-ledger plane: the router
// scrapes every replica's /debug/ledger snapshot, merges them
// deterministically, evaluates the -alerts rules (perf-loss budget
// burn-rate, energy-savings regression vs the rolling baseline, stale
// replica ledgers), and serves the fleet view at /debug/ledger plus
// ledger_fleet_*/alert_* series on /metrics.prom — what cmd/dvfstop
// renders live.
//
// -backend pins the inference backend every replica must advertise in
// hello negotiation (match the replicas' ssmdvfsd -backend flag); a
// replica answering with different numerics is taken out of the ring
// rather than mixed into the fleet. Empty accepts any replica.
//
// Clients speak the same binary protocol as to a single daemon: one
// frame, in which a row's (gpu, cluster) identity is optional. Rows that
// carry one shard by their GPU and learn which shard answered; rows that
// carry none (-1/-1) share a synthetic GPU drawn once per frame.
//
// Endpoints (all of them; the same two metric formats a daemon serves,
// from the same handler):
//
//	GET /metrics.prom  fleet counters in Prometheus text exposition 0.0.4
//	GET /telemetry     the same registry as a JSON snapshot (cmd/dvfsstat
//	                   -metrics input)
//	GET /healthz       per-replica health; 503 when no replica is healthy
//	GET /debug/ledger  merged fleet efficiency ledger + alert states (with
//	                   -replica-http; 404 when disabled)
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ssmdvfs/internal/buildinfo"
	"ssmdvfs/internal/fleet"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/serve"
	"ssmdvfs/internal/telemetry"
)

func main() {
	var (
		replicas     = flag.String("replicas", "", "comma-separated replica binary-protocol addresses (required)")
		tcpAddr      = flag.String("tcp", ":8092", "front-end binary-protocol listen address")
		httpAddr     = flag.String("http", ":8093", "metrics/health HTTP listen address (empty disables)")
		vnodes       = flag.Int("vnodes", 0, "virtual nodes per replica on the ring (0 = default)")
		seed         = flag.Uint64("seed", 1, "ring hash seed (same seed + replica set = same sharding)")
		backend      = flag.String("backend", "", "inference backend replicas must advertise: float64 or int8 (empty = any)")
		rows         = flag.Int("coalesce-rows", 0, "max rows a dispatch slot merges into one frame from what is already queued; it never waits for more (0 = default 64)")
		inflight     = flag.Int("inflight", 0, "frames in flight per replica (0 = default 2)")
		queueLen     = flag.Int("queue", 0, "per-replica admission queue length in rows (0 = default 1024)")
		deadline     = flag.Duration("queue-deadline", 2*time.Millisecond, "shed rows queued longer than this (0 = off)")
		maxHops      = flag.Int("max-hops", 0, "reroute attempts per row after replica failure (0 = default 1)")
		probe        = flag.Duration("probe", 0, "unhealthy replica re-dial interval (0 = default 250ms)")
		dialTimeout  = flag.Duration("dial-timeout", time.Second, "router→replica connect timeout")
		replicaHTTP  = flag.String("replica-http", "", "comma-separated replica HTTP base URLs (e.g. http://host1:8090,...); arms the ledger scrape loop merging every replica's /debug/ledger into a fleet view (empty = off)")
		scrape       = flag.Duration("scrape", 0, "ledger scrape interval (0 = default 1s)")
		alertSpec    = flag.String("alerts", "", "alert rules over the merged ledger, e.g. 'burn>1.5;regress>0.5;stale>15' (empty = defaults, 'none' = off)")
		spansPath    = flag.String("spans", "", "write router-hop spans for sampled traced requests to this JSONL file (dvfsstat -chrome input; empty = off)")
		verbose      = flag.Bool("v", true, "log progress")
		printVersion = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *printVersion {
		fmt.Println("dvfsfleet", buildinfo.String())
		return
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	var tracer *telemetry.Tracer
	if *spansPath != "" {
		sf, err := os.Create(*spansPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvfsfleet:", err)
			os.Exit(1)
		}
		defer sf.Close()
		tracer = telemetry.NewTracer(sf)
		logf("dvfsfleet: tracing armed: router-hop spans to %s", *spansPath)
	}
	rules, err := ledger.ParseRules(*alertSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvfsfleet:", err)
		os.Exit(1)
	}
	if rules == nil {
		// "none": keep the scrape plane but evaluate no rules (a nil slice
		// would mean "use defaults" to the router).
		rules = []ledger.Rule{}
	}
	opts := fleet.Options{
		Replicas:      splitAddrs(*replicas),
		VNodes:        *vnodes,
		Seed:          *seed,
		ExpectBackend: *backend,
		CoalesceRows:  *rows,
		MaxInFlight:   *inflight,
		QueueLen:      *queueLen,
		QueueDeadline: *deadline,
		MaxHops:       *maxHops,
		ProbeInterval: *probe,
		Dial:          serve.DialOptions{Timeout: *dialTimeout},
		Tracer:        tracer,
		Logf:          logf,

		ReplicaHTTP:    splitAddrs(*replicaHTTP),
		ScrapeInterval: *scrape,
		AlertRules:     rules,
	}
	if err := run(opts, *tcpAddr, *httpAddr, logf); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsfleet:", err)
		os.Exit(1)
	}
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func run(opts fleet.Options, tcpAddr, httpAddr string, logf func(string, ...any)) error {
	if len(opts.Replicas) == 0 {
		return fmt.Errorf("-replicas is required")
	}
	if tcpAddr == "" {
		return fmt.Errorf("-tcp is required")
	}
	rt, err := fleet.NewRouter(opts)
	if err != nil {
		return err
	}
	rt.Telemetry().SetBuild(buildinfo.Info())
	logf("dvfsfleet: %d replicas on the ring (seed %d): %s",
		rt.NumShards(), opts.Seed, strings.Join(rt.Ring().Replicas(), ", "))

	errc := make(chan error, 2)
	l, err := net.Listen("tcp", tcpAddr)
	if err != nil {
		return err
	}
	logf("dvfsfleet: binary protocol on %s", l.Addr())
	go func() { errc <- rt.ServeTCP(l) }()

	var hs *http.Server
	if httpAddr != "" {
		hl, err := net.Listen("tcp", httpAddr)
		if err != nil {
			rt.Close()
			return err
		}
		hs = &http.Server{Addr: httpAddr, Handler: rt.Handler()}
		logf("dvfsfleet: HTTP on %s", hl.Addr())
		go func() { errc <- hs.Serve(hl) }()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case err := <-errc:
			if err != nil && err != http.ErrServerClosed {
				return err
			}
		case sig := <-sigc:
			logf("dvfsfleet: %s, shutting down", sig)
			if hs != nil {
				hs.Close()
			}
			rt.Close()
			if opts.Tracer != nil {
				if err := opts.Tracer.Flush(); err != nil {
					logf("dvfsfleet: span flush: %v", err)
				}
			}
			m := rt.Metrics()
			logf("dvfsfleet: routed %d rows in %d requests (%d shed, %d rerouted, %d replica failures)",
				m.Rows.Load(), m.Requests.Load(), m.ShedTotal(), m.Rerouted.Load(), m.Down.Load())
			if agg := rt.LedgerAggregate(); agg != nil {
				s := agg.Merged
				logf("dvfsfleet: fleet ledger: %s saved vs MaxFreq (%.1f%% of bill) at %.3f%% mean perf loss over %d decisions",
					ledger.FormatEnergyPJ(float64(s.SavedPJ())), s.SavedRatio()*100, s.MeanPerfLoss()*100, s.Decisions)
			}
			return nil
		}
	}
}
