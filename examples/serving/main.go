// Serving walkthrough: build (or load) the SSMDVFS models, start the
// decision daemon in-process on loopback, drive it with a short batched
// load over the binary protocol, hot-swap the model mid-load with zero
// failed requests, and print the serving metrics — the single-process
// version of the two-terminal ssmdvfsd + dvfsload quickstart in the
// README.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"path/filepath"
	"strconv"
	"time"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/experiments"
	"ssmdvfs/internal/serve"
	"ssmdvfs/internal/telemetry"
)

func main() {
	// 1. Models (cached in ssmdvfs-cache after the first run).
	opts := experiments.QuickPipelineOptions()
	opts.CacheDir = "ssmdvfs-cache"
	opts.Logger = telemetry.NewLoggerFunc(log.Printf, nil)
	pipe, err := experiments.RunPipeline(opts)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Daemon: serve the full model first, hot-swap to the compressed
	// one mid-load. ModelPath points Reload at the compressed artifact.
	srv, err := serve.NewServer(pipe.Model, serve.Options{
		ModelPath: filepath.Join(opts.CacheDir, "compressed.json"),
		Logf:      log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Close()
	fmt.Printf("daemon: binary protocol on %s\n", l.Addr())

	// 3. Load: one client, one GPU's 24 clusters per frame.
	cl, err := serve.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(1))
	rows := make([]serve.Request, 24)
	const batches = 2000
	start := time.Now()
	for b := 0; b < batches; b++ {
		for i := range rows {
			m := rng.Float64()
			feats := make([]float64, counters.Num)
			feats[counters.IdxIPC] = 2.0 * (1 - m)
			feats[counters.IdxPPC] = 3 + 4*(1-m)
			feats[counters.IdxMH] = 60000 * m
			feats[counters.IdxMHNL] = 5000 * m
			feats[counters.IdxL1CRM] = 2000 * m
			rows[i] = serve.Request{Preset: 0.10, Features: feats, GPU: 0, Cluster: int32(i)}
		}
		if _, err := cl.DecideKeyed(rows); err != nil {
			log.Fatal(err)
		}
		if b == batches/2 {
			if err := srv.Reload(""); err != nil {
				log.Fatal(err)
			}
			fmt.Println("hot-swapped to the compressed model mid-load")
		}
	}
	elapsed := time.Since(start)

	// 4. Metrics: the registry snapshot a scraper reads at /telemetry.
	snap := srv.Telemetry().Snapshot()
	decisions := snap.Counters["serve_decisions_total"]
	fmt.Printf("\nserved %d decisions in %s (%.0f decisions/s)\n",
		decisions, elapsed.Round(time.Millisecond), float64(decisions)/elapsed.Seconds())
	lat := snap.Histograms["serve_batch_latency_us"]
	fmt.Printf("batch latency p50/p95/p99: %.0f / %.0f / %.0f µs\n", lat.P50, lat.P95, lat.P99)
	fmt.Printf("reloads %d, errors %d\n", snap.Counters["serve_reloads_total"], snap.Counters["serve_errors_total"])
	fmt.Println("decision distribution:")
	for lvl := 0; lvl < srv.Model().Levels; lvl++ {
		n := snap.Counters[telemetry.MetricID("serve_level_decisions_total", "level", strconv.Itoa(lvl))]
		fmt.Printf("  level %d: %5.1f%%\n", lvl, 100*float64(n)/float64(decisions))
	}
}
