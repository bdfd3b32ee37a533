package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRegistryReturnsStableHandles(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter handle not stable")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge handle not stable")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("histogram handle not stable")
	}
	// Label order must not matter.
	if r.Counter("c", "a", "1", "b", "2") != r.Counter("c", "b", "2", "a", "1") {
		t.Fatal("label order changed metric identity")
	}
	// Different labels are different metrics.
	if r.Counter("c", "a", "1") == r.Counter("c", "a", "2") {
		t.Fatal("distinct labels collided")
	}
}

func TestMetricIDAndParseRoundTrip(t *testing.T) {
	id := MetricID("sim_level_residency_ps", "level", "3", "cluster", "0")
	want := `sim_level_residency_ps{cluster="0",level="3"}`
	if id != want {
		t.Fatalf("MetricID = %q, want %q", id, want)
	}
	name, labels := ParseID(id)
	if name != "sim_level_residency_ps" {
		t.Fatalf("ParseID name = %q", name)
	}
	if labels["level"] != "3" || labels["cluster"] != "0" {
		t.Fatalf("ParseID labels = %v", labels)
	}
	if name, labels := ParseID("plain"); name != "plain" || labels != nil {
		t.Fatalf("ParseID(plain) = %q, %v", name, labels)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total").Add(7)
	r.Counter("by_level", "level", "2").Add(3)
	r.Gauge("power_w").Set(42.5)
	h := r.HistogramBuckets("latency_us", 20)
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["events_total"] != 7 {
		t.Fatalf("events_total = %d", snap.Counters["events_total"])
	}
	if snap.Counters[`by_level{level="2"}`] != 3 {
		t.Fatalf("labelled counter = %d", snap.Counters[`by_level{level="2"}`])
	}
	if snap.Gauges["power_w"] != 42.5 {
		t.Fatalf("gauge = %g", snap.Gauges["power_w"])
	}
	hs, ok := snap.Histograms["latency_us"]
	if !ok || hs.Count != 5 || hs.Sum != 1106 || len(hs.Buckets) != 20 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	if hs.P50 <= 0 || hs.P99 < hs.P50 {
		t.Fatalf("quantiles implausible: %+v", hs)
	}
}

func TestWritePromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("decisions_total").Add(10)
	r.Gauge("open_conns").Set(2)
	h := r.HistogramBuckets("latency_us", 4)
	h.Observe(1)   // bucket 1
	h.Observe(3)   // bucket 2
	h.Observe(900) // overflow → bucket 3

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE decisions_total counter",
		"decisions_total 10",
		"# TYPE open_conns gauge",
		"open_conns 2",
		"# TYPE latency_us histogram",
		`latency_us_bucket{le="1"} 0`,
		`latency_us_bucket{le="2"} 1`,
		`latency_us_bucket{le="4"} 2`,
		`latency_us_bucket{le="+Inf"} 3`,
		"latency_us_sum 904",
		"latency_us_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Add(1)
				r.Gauge("g").Add(1)
				r.Histogram("h", "worker", "0").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Fatalf("gauge = %g, want 8000", got)
	}
	if got := r.Histogram("h", "worker", "0").Snapshot().Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Add(0.5)
		h.Observe(17)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f times per op, want 0", allocs)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DefaultHistBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 0xffff))
	}
}
