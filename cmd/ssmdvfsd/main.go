// Command ssmdvfsd is the SSMDVFS decision daemon: it loads a trained
// Decision-maker + Calibrator model (the plain or compressed artifact)
// and serves per-epoch DVFS decisions over a length-prefixed binary
// protocol on TCP; HTTP is the control and read-out plane beside it. The
// model hot-swaps with zero downtime on SIGHUP or POST /reload.
//
// Usage:
//
//	ssmdvfsd -model ssmdvfs-cache/compressed.json [-http :8090] [-tcp :8091]
//	         [-workers N] [-budget 200us]
//	         [-flightrec 4096] [-ledger] [-ledger-window 1s]
//	         [-spans ssmdvfsd-spans.jsonl]
//	         [-faults 'serve.infer:panic:every=100'] [-faults-seed 1]
//	         [-adapt] [-adapt-interval 1s]
//
// -adapt closes the paper's self-calibration loop online: when a poll
// finds the flight recorder's drift gauges past their thresholds, the
// daemon harvests realized epochs into a training stream, re-fits the
// Calibrator in place, shadow-scores the candidate on live traffic
// (it never serves), promotes it through the validated hot-swap path
// only if it beats the incumbent's rolling MAPE, canaries the
// promotion against live realized error, and automatically rolls back
// to the retained incumbent on regression. Every transition lands in
// adapt_* telemetry and the /debug/adapt transition log. -adapt implies
// -flightrec (default 4096 when unset); its thresholds are the adapt
// package's defaults.
//
// The daemon degrades instead of failing: model panics, deadline misses
// (-budget), and malformed feature rows are answered by the analytical
// PCSTALL fallback, and /healthz reports the healthy → degraded →
// fallback-only state machine. -faults arms deterministic fault
// injection for chaos testing (see internal/faults).
//
// Endpoints (all of them; decisions are not served over HTTP):
//
//	GET  /metrics.prom  every counter, gauge and histogram in Prometheus text
//	                    exposition format (with -flightrec, also the prov_*
//	                    model-quality series; with -ledger, ledger_*)
//	GET  /telemetry     the same registry as a JSON snapshot (cmd/dvfsstat
//	                    -metrics input)
//	GET  /healthz       degradation state + build attribution (503 in
//	                    fallback-only; decisions are still served)
//	GET  /model         served model info
//	POST /reload        swap in a new model ({"path":"..."}; path optional)
//	GET  /debug/decisions  flight-recorder dump of the last -flightrec
//	                    decisions as JSONL (cmd/dvfsstat -decisions input;
//	                    ?n=, ?cluster=, ?reason=, ?trace= filter)
//	GET  /debug/ledger  efficiency-ledger snapshot: estimated energy saved and
//	                    perf-loss vs the MaxFreq counterfactual (with -ledger;
//	                    what the fleet router scrapes and dvfstop renders)
//	GET  /debug/adapt   adaptation state + transition log (with -adapt)
//	GET  /debug/pprof/  live CPU/heap/goroutine profiling
//
// Pair it with cmd/dvfsload to measure serving throughput and latency,
// and cmd/dvfsstat to summarize a scraped /telemetry dump.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ssmdvfs/internal/adapt"
	"ssmdvfs/internal/buildinfo"
	"ssmdvfs/internal/core"
	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/serve"
	"ssmdvfs/internal/telemetry"
)

func main() {
	var (
		modelPath = flag.String("model", "", "model file (plain or compressed artifact; required)")
		httpAddr  = flag.String("http", ":8090", "HTTP listen address (empty disables)")
		tcpAddr   = flag.String("tcp", ":8091", "binary-protocol listen address (empty disables)")
		workers   = flag.Int("workers", 0, "max concurrent inference batches (0 = GOMAXPROCS)")
		budget    = flag.Duration("budget", 0, "per-decision deadline; rows past it get the analytical fallback (0 = off)")
		flightrec = flag.Int("flightrec", 0, "keep the last N decisions in a provenance flight recorder with online drift monitoring (0 = off)")
		adaptOn   = flag.Bool("adapt", false, "close the self-calibration loop: drift-triggered online re-fit with shadow scoring, canary rollout, and automatic rollback (implies -flightrec)")
		adaptIvl  = flag.Duration("adapt-interval", time.Second, "how often the adaptation controller polls the flight recorder")
		ledgerOn  = flag.Bool("ledger", false, "account every decision's estimated energy delta and perf-loss versus the MaxFreq counterfactual (ledger_* series on /metrics.prom, snapshot at /debug/ledger)")
		ledgerIvl = flag.Duration("ledger-window", time.Second, "efficiency-ledger time-series window width")
		spansPath = flag.String("spans", "", "write spans for sampled traced requests to this JSONL file (dvfsstat -chrome input; empty = off)")
		faultSpec = flag.String("faults", "", "arm fault injection, e.g. 'serve.infer:panic:every=100;serve.conn:error:rate=0.01' (chaos testing)")
		faultSeed = flag.Int64("faults-seed", 1, "seed for rate-based fault injection")
		verbose   = flag.Bool("v", true, "log progress")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("ssmdvfsd", buildinfo.String())
		return
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	acfg := adaptConfig{
		Enabled:  *adaptOn,
		Interval: *adaptIvl,
		Options:  adapt.Options{Logf: logf},
	}
	ledgerWindow := time.Duration(0)
	if *ledgerOn {
		ledgerWindow = *ledgerIvl
	}
	if err := run(*modelPath, *httpAddr, *tcpAddr, *spansPath, *workers, *budget, *flightrec, ledgerWindow, *faultSpec, *faultSeed, acfg, logf); err != nil {
		fmt.Fprintln(os.Stderr, "ssmdvfsd:", err)
		os.Exit(1)
	}
}

// adaptConfig carries the -adapt* flags into run.
type adaptConfig struct {
	Enabled  bool
	Interval time.Duration
	Options  adapt.Options
}

// buildMux layers what only the daemon binary has — pprof and, with
// -adapt, the adaptation controller's transition log — over the serving
// package's HTTP surface.
func buildMux(srv *serve.Server, ctrl *adapt.Controller) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if ctrl != nil {
		mux.Handle("/debug/adapt", ctrl.Handler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run(modelPath, httpAddr, tcpAddr, spansPath string, workers int, budget time.Duration, flightrec int, ledgerWindow time.Duration, faultSpec string, faultSeed int64, acfg adaptConfig, logf func(string, ...any)) error {
	if modelPath == "" {
		return fmt.Errorf("-model is required")
	}
	if httpAddr == "" && tcpAddr == "" {
		return fmt.Errorf("at least one of -http and -tcp is required")
	}
	m, err := core.LoadFile(modelPath)
	if err != nil {
		return err
	}
	logf("ssmdvfsd: loaded %s: %d levels, %d features, %d params, %d FLOPs (%d effective)",
		modelPath, m.Levels, m.NumFeatures(), m.Params(), m.FLOPs(), m.EffectiveFLOPs())

	inj, err := faults.Parse(faultSpec, faultSeed)
	if err != nil {
		return err
	}
	if inj != nil {
		logf("ssmdvfsd: FAULT INJECTION ARMED: %s (seed %d)", inj, faultSeed)
	}

	srv, err := serve.NewServer(m, serve.Options{
		ModelPath: modelPath,
		Workers:   workers,
		Budget:    budget,
		Faults:    inj,
		Logf:      logf,
	})
	if err != nil {
		return err
	}
	srv.Telemetry().SetBuild(buildinfo.Info())
	var led *ledger.Ledger
	if ledgerWindow > 0 {
		led = ledger.New(ledger.Options{Registry: srv.Telemetry(), Window: ledgerWindow})
		srv.SetLedger(led)
		logf("ssmdvfsd: efficiency ledger armed: energy/perf-loss accounting at /debug/ledger (%s windows)", ledgerWindow)
	}
	var tracer *telemetry.Tracer
	if spansPath != "" {
		sf, err := os.Create(spansPath)
		if err != nil {
			srv.Close()
			return err
		}
		defer sf.Close()
		tracer = telemetry.NewTracer(sf)
		srv.SetTracer(tracer)
		logf("ssmdvfsd: tracing armed: sampled request spans to %s", spansPath)
	}
	if acfg.Enabled && flightrec <= 0 {
		// The flight recorder is the adaptation loop's training stream and
		// drift sensor; -adapt without -flightrec arms a default-sized one.
		flightrec = 4096
		logf("ssmdvfsd: -adapt implies a flight recorder: arming -flightrec %d", flightrec)
	}
	if flightrec > 0 {
		srv.EnableProvenance(flightrec, provenance.MonitorOptions{})
		logf("ssmdvfsd: flight recorder armed: last %d decisions at /debug/decisions, drift gauges on /telemetry", flightrec)
	}
	var ctrl *adapt.Controller
	var stopCtrl context.CancelFunc
	if acfg.Enabled {
		// Live MAPE feeds both the drift trigger and the canary judge.
		srv.EnablePredFeedback()
		ctrl, err = adapt.NewController(srv.Engine, acfg.Options)
		if err != nil {
			srv.Close()
			return err
		}
		var ctx context.Context
		ctx, stopCtrl = context.WithCancel(context.Background())
		defer stopCtrl()
		go ctrl.Run(ctx, acfg.Interval)
		logf("ssmdvfsd: online adaptation armed: drift-triggered re-fit with shadow + canary every %s, transitions at /debug/adapt", acfg.Interval)
	}

	errc := make(chan error, 2)
	if tcpAddr != "" {
		l, err := net.Listen("tcp", tcpAddr)
		if err != nil {
			return err
		}
		logf("ssmdvfsd: binary protocol on %s", l.Addr())
		go func() { errc <- srv.ServeTCP(l) }()
	}
	var hs *http.Server
	if httpAddr != "" {
		hs = &http.Server{Addr: httpAddr, Handler: buildMux(srv, ctrl)}
		hl, err := net.Listen("tcp", httpAddr)
		if err != nil {
			srv.Close()
			return err
		}
		logf("ssmdvfsd: HTTP on %s", hl.Addr())
		go func() { errc <- hs.Serve(hl) }()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case err := <-errc:
			if err != nil && err != http.ErrServerClosed {
				return err
			}
		case sig := <-sigc:
			switch sig {
			case syscall.SIGHUP:
				if err := srv.Reload(""); err != nil {
					logf("ssmdvfsd: reload failed (still serving previous model): %v", err)
				}
			default:
				logf("ssmdvfsd: %s, shutting down", sig)
				if stopCtrl != nil {
					stopCtrl()
				}
				if hs != nil {
					hs.Close()
				}
				srv.Close()
				if tracer != nil {
					if err := tracer.Flush(); err != nil {
						logf("ssmdvfsd: span flush: %v", err)
					}
				}
				met := srv.Metrics()
				logf("ssmdvfsd: served %d decisions in %d batches, %d reloads, %d errors",
					met.Decisions.Load(), met.Batches.Load(), met.Reloads.Load(), met.Errors.Load())
				if led != nil {
					ls := led.Snapshot()
					logf("ssmdvfsd: ledger: %s saved vs MaxFreq (%.1f%% of bill) at %.3f%% mean perf loss over %d decisions",
						ledger.FormatEnergyPJ(float64(ls.SavedPJ())), ls.SavedRatio()*100, ls.MeanPerfLoss()*100, ls.Decisions)
				}
				return nil
			}
		}
	}
}
