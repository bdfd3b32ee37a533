package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestMetricIDEscapedLabelRoundTrip pins ParseID as the exact inverse of
// MetricID for hostile label values: quotes, backslashes, newlines, and
// commas inside values must survive, and splitLabels must not be fooled
// by escaped quotes.
func TestMetricIDEscapedLabelRoundTrip(t *testing.T) {
	cases := []map[string]string{
		{"path": `C:\temp\x`},
		{"msg": "a \"quoted\" value"},
		{"msg": `tricky \" half escape`},
		{"multi": "line one\nline two"},
		{"a": `v1,with,commas`, "b": `"`, "c": `\`},
		{"empty": ""},
	}
	for _, labels := range cases {
		var flat []string
		for k, v := range labels {
			flat = append(flat, k, v)
		}
		id := MetricID("m", flat...)
		name, got := ParseID(id)
		if name != "m" {
			t.Fatalf("id %q: name = %q", id, name)
		}
		if len(got) != len(labels) {
			t.Fatalf("id %q: parsed %d labels, want %d (%v)", id, len(got), len(labels), got)
		}
		for k, v := range labels {
			if got[k] != v {
				t.Fatalf("id %q: label %s = %q, want %q", id, k, got[k], v)
			}
		}
	}
}

// TestHistogramPromEscapedLabels pins that a histogram with hostile
// label values round-trips through WriteProm's ParseID→MetricID path
// without double-escaping: the _bucket/_sum/_count series must carry the
// label rendered exactly once.
func TestHistogramPromEscapedLabels(t *testing.T) {
	r := NewRegistry()
	r.HistogramBuckets("lat", 4, "conn", `peer "a"\b`).Observe(3)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `conn="peer \"a\"\\b"`
	if !strings.Contains(out, "lat_sum{"+want+"}") {
		t.Fatalf("_sum series mis-escaped:\n%s", out)
	}
	if strings.Contains(out, `\\\"`) {
		t.Fatalf("label value double-escaped:\n%s", out)
	}
	// Every _bucket line must parse back to the original value.
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lat_bucket{") {
			continue
		}
		id := line[:strings.LastIndexByte(line, ' ')]
		_, labels := ParseID(id)
		if labels["conn"] != `peer "a"\b` {
			t.Fatalf("bucket line %q parsed conn = %q", line, labels["conn"])
		}
	}
}

// TestWritePromDeterministic pins byte-identical exposition output for a
// registry populated in two different orders.
func TestWritePromDeterministic(t *testing.T) {
	build := func(order []int) string {
		r := NewRegistry()
		r.SetBuild(map[string]string{"go": "go1.x", "revision": "abc"})
		for _, i := range order {
			switch i {
			case 0:
				r.Counter("reqs", "code", "200").Add(2)
			case 1:
				r.Counter("reqs", "code", "500").Add(1)
			case 2:
				r.Gauge("temp", "zone", "a").Set(1.5)
			case 3:
				r.HistogramBuckets("lat", 4).Observe(2)
			}
		}
		var buf bytes.Buffer
		if err := r.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 2, 1, 0})
	if a != b {
		t.Fatalf("WriteProm depends on registration order:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, `build_info{go="go1.x",revision="abc"} 1`) {
		t.Fatalf("build_info series missing:\n%s", a)
	}
}

// TestEmptyHistogramNoNaN pins the empty-histogram contract end to end:
// quantiles are 0 (never NaN), and neither the JSON snapshot nor the
// Prometheus exposition of an observation-free histogram contains NaN.
func TestEmptyHistogramNoNaN(t *testing.T) {
	h := NewHistogram(8)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := Quantile(h.Buckets(), q); got != 0 {
			t.Fatalf("empty histogram q=%g → %g, want 0", q, got)
		}
	}
	snap := h.Snapshot()
	if snap.P50 != 0 || snap.P95 != 0 || snap.P99 != 0 {
		t.Fatalf("empty snapshot quantiles = %g/%g/%g", snap.P50, snap.P95, snap.P99)
	}

	r := NewRegistry()
	r.Histogram("lat") // registered, never observed
	var jsonBuf bytes.Buffer
	if err := r.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(jsonBuf.String(), "NaN") {
		t.Fatalf("JSON dump contains NaN:\n%s", jsonBuf.String())
	}
	var parsed map[string]any
	if err := json.Unmarshal(jsonBuf.Bytes(), &parsed); err != nil {
		t.Fatalf("JSON dump is not valid JSON: %v", err)
	}
	var promBuf bytes.Buffer
	if err := r.WriteProm(&promBuf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(promBuf.String(), "NaN") {
		t.Fatalf("Prom exposition contains NaN:\n%s", promBuf.String())
	}
}

// TestQuantileEdgeSemantics pins the documented q clamping: NaN and
// negative q read as 0, q past 1 reads as 1.
func TestQuantileEdgeSemantics(t *testing.T) {
	h := NewHistogram(8)
	h.Observe(2)
	h.Observe(100)
	lo := Quantile(h.Buckets(), 0)
	hi := Quantile(h.Buckets(), 1)
	if got := Quantile(h.Buckets(), math.NaN()); got != lo {
		t.Fatalf("q=NaN → %g, want %g (reads as 0)", got, lo)
	}
	if got := Quantile(h.Buckets(), -3); got != lo {
		t.Fatalf("q=-3 → %g, want %g", got, lo)
	}
	if got := Quantile(h.Buckets(), 7); got != hi {
		t.Fatalf("q=7 → %g, want %g", got, hi)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		t.Fatalf("edge quantiles are NaN: %g, %g", lo, hi)
	}
}
