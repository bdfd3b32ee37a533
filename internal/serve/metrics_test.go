package serve

import (
	"testing"
	"time"

	"ssmdvfs/internal/telemetry"
)

// TestObserveHotPathAllocationFree guards the acceptance criterion that
// re-hosting Metrics on the telemetry registry kept the serving hot path
// allocation-free: per-batch and per-decision recording must be pure
// atomics on pre-resolved handles.
func TestObserveHotPathAllocationFree(t *testing.T) {
	m := newMetrics(telemetry.NewRegistry())
	allocs := testing.AllocsPerRun(1000, func() {
		m.ObserveBatchTraced(24, 37*time.Microsecond, 0)
		m.ObserveLevel(3)
		m.Conns.Add(1)
		m.Conns.Add(-1)
	})
	if allocs != 0 {
		t.Fatalf("metrics hot path allocates %.1f times per batch, want 0", allocs)
	}
}

func BenchmarkObserveBatch(b *testing.B) {
	m := newMetrics(telemetry.NewRegistry())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ObserveBatchTraced(24, time.Duration(i%1000)*time.Microsecond, 0)
		m.ObserveLevel(i % 6)
	}
}
