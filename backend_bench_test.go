package ssmdvfs_bench

import (
	"fmt"
	"testing"
	"time"

	"ssmdvfs/internal/asic"
	"ssmdvfs/internal/serve"
)

// BenchmarkBackendThroughput measures the in-process decision hot path —
// serve.Engine.DecideBatch straight into the inference backend, no
// transport — across backend × batch-size, on the compressed serving
// model with real oracle feature rows. The decisions/s metric is per
// core (one goroutine drives the engine), so it composes with worker
// counts; the served counterpart, like for like over loopback TCP, is the
// bench module's serve_epoch/serve_batch/serve_batch_int8 workloads. For
// scale, the asic_cycles metric is the Section V-D hardware estimate for
// the same model: the software path serves fleets, the ASIC serves one
// cluster at 10 µs.
func BenchmarkBackendThroughput(b *testing.B) {
	p := pipeline(b)
	if len(p.Dataset.Samples) == 0 {
		b.Fatal("empty oracle dataset")
	}
	est, err := asic.Estimate(p.Compressed, asic.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}

	for _, backend := range []string{"float64", "int8"} {
		for _, batch := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("backend=%s/rows=%d", backend, batch), func(b *testing.B) {
				srv, err := serve.NewServer(p.Compressed.Clone(), serve.Options{Backend: backend, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				rows := make([]serve.Request, batch)
				for i := range rows {
					rows[i] = serve.Request{Preset: 0.10, Features: p.Dataset.Samples[i%len(p.Dataset.Samples)].Features}
				}
				var decs []serve.Decision
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					decs = srv.DecideBatch(rows, decs[:0])
				}
				elapsed := time.Since(start)
				if len(decs) != batch {
					b.Fatalf("%d decisions for %d rows", len(decs), batch)
				}
				b.ReportMetric(float64(b.N*batch)/elapsed.Seconds(), "decisions/s")
				b.ReportMetric(float64(est.CyclesPerInference), "asic_cycles")
			})
		}
	}
}
