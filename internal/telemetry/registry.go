// Package telemetry is the project's shared observability layer: a
// concurrency-safe metrics registry (counters, gauges, log-2 histograms
// with quantile estimation), a lightweight span tracer with Chrome
// trace-event export, and a levelled progress logger. The experiment
// pipeline, the provenance monitor and the serving subsystem record into
// it, and cmd/dvfsstat turns its dumps back into latency quantiles,
// counter and gauge tables.
//
// Handles returned by the registry are stable pointers whose operations
// are single atomic updates — safe for concurrent use and allocation-free
// on the hot path. Registration (get-or-create) takes a lock and may
// allocate; instrument hot loops by resolving handles once up front.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ssmdvfs/internal/atomicfile"
)

// Counter is a monotonically-increasing integer metric — the Prometheus
// exposition types it "counter", so a value that can fall is a Gauge.
// The zero value is usable.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a float-valued metric that may move in either direction.
// The zero value is usable.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Add adjusts the gauge by d (CAS loop; lock-free).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

// Registry holds named metrics. All methods are safe for concurrent use;
// a metric is identified by its name plus an optional set of label
// key/value pairs, and repeated lookups return the same handle.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	build    map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// SetBuild attaches build attribution (e.g. buildinfo.Info()) to the
// registry; snapshots carry it so a scraped dump can be traced back to
// the binary that produced it. The map is copied.
func (r *Registry) SetBuild(info map[string]string) {
	cp := make(map[string]string, len(info))
	for k, v := range info {
		cp[k] = v
	}
	r.mu.Lock()
	r.build = cp
	r.mu.Unlock()
}

// MetricID renders a metric identifier: the bare name, or
// name{k="v",...} with label pairs sorted by key. labels must come in
// key/value pairs.
func MetricID(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic("telemetry: odd label list for " + name)
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// ParseID splits a metric identifier produced by MetricID back into its
// base name and label map (nil when the id carries no labels).
func ParseID(id string) (name string, labels map[string]string) {
	open := strings.IndexByte(id, '{')
	if open < 0 || !strings.HasSuffix(id, "}") {
		return id, nil
	}
	name = id[:open]
	body := id[open+1 : len(id)-1]
	if body == "" {
		return name, nil
	}
	labels = make(map[string]string)
	for _, part := range splitLabels(body) {
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			continue
		}
		k := part[:eq]
		v := part[eq+1:]
		// MetricID rendered the value with %q, so strconv.Unquote is the
		// exact inverse — it restores escaped quotes, backslashes, and
		// newlines. Fall back to bare trimming for hand-written ids.
		if uq, err := strconv.Unquote(v); err == nil {
			v = uq
		} else {
			v = strings.TrimPrefix(v, `"`)
			v = strings.TrimSuffix(v, `"`)
		}
		labels[k] = v
	}
	return name, labels
}

// splitLabels splits `k="v",k2="v2"` on commas outside quotes. A
// backslash inside quotes escapes the next byte, so values containing
// `\"` or `\\` do not derail the quote tracking.
func splitLabels(s string) []string {
	var out []string
	inQuote := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++ // skip the escaped byte
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// Counter returns (creating if needed) the counter with this identity.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	id := MetricID(name, labels...)
	r.mu.RLock()
	c, ok := r.counters[id]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[id]; !ok {
		c = &Counter{}
		r.counters[id] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge with this identity.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	id := MetricID(name, labels...)
	r.mu.RLock()
	g, ok := r.gauges[id]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[id]; !ok {
		g = &Gauge{}
		r.gauges[id] = g
	}
	return g
}

// Histogram returns (creating if needed) a log-2 histogram with the
// default bucket count.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.HistogramBuckets(name, DefaultHistBuckets, labels...)
}

// HistogramBuckets is Histogram with an explicit bucket count. The count
// is fixed at first creation; later lookups ignore the argument.
func (r *Registry) HistogramBuckets(name string, buckets int, labels ...string) *Histogram {
	id := MetricID(name, labels...)
	r.mu.RLock()
	h, ok := r.hists[id]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[id]; !ok {
		h = NewHistogram(buckets)
		r.hists[id] = h
	}
	return h
}

// HistogramSnapshot is the JSON view of one histogram.
type HistogramSnapshot struct {
	// Buckets[i] counts observations in [2^(i-1), 2^i) (index 0 is < 1);
	// the last bucket absorbs the overflow tail.
	Buckets []int64 `json:"buckets"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	// Exemplars[i], when non-nil, is a sampled observation from bucket i
	// (absent entirely for histograms that never saw a sampled request,
	// keeping older dumps byte-identical).
	Exemplars []*Exemplar `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time JSON-friendly view of a registry. Counter
// values are read individually (consistent enough for monitoring, as in
// serve.Metrics).
type Snapshot struct {
	// Build attributes the snapshot to the producing binary (SetBuild).
	Build      map[string]string            `json:"build,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric currently registered.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Build:      r.build,
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for id, c := range r.counters {
		s.Counters[id] = c.Load()
	}
	for id, g := range r.gauges {
		s.Gauges[id] = g.Value()
	}
	for id, h := range r.hists {
		s.Histograms[id] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON — the dump
// format cmd/dvfsstat consumes.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ReadSnapshot parses a dump written by WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return s, fmt.Errorf("telemetry: %w", err)
	}
	return s, nil
}

// ReadSnapshotFile reads a WriteJSON dump from disk.
func ReadSnapshotFile(path string) (Snapshot, error) {
	return atomicfile.ReadWith(path, ReadSnapshot)
}

// WriteProm writes the snapshot in the Prometheus text exposition format
// (version 0.0.4): counters and gauges as-is, histograms as cumulative
// le-labelled buckets with _sum and _count series.
func (s Snapshot) WriteProm(w io.Writer) error {
	typed := make(map[string]string) // base name → TYPE already emitted
	emitType := func(base, kind string) error {
		if typed[base] == kind {
			return nil
		}
		typed[base] = kind
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		return err
	}

	if len(s.Build) > 0 {
		// The Prometheus build-attribution idiom: a constant-1 gauge whose
		// labels carry the binary identity.
		if err := emitType("build_info", "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s 1\n", MetricID("build_info", flatten(s.Build)...)); err != nil {
			return err
		}
	}
	for _, id := range sortedKeys(s.Counters) {
		base, _ := ParseID(id)
		if err := emitType(base, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", id, s.Counters[id]); err != nil {
			return err
		}
	}
	for _, id := range sortedKeys(s.Gauges) {
		base, _ := ParseID(id)
		if err := emitType(base, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", id, s.Gauges[id]); err != nil {
			return err
		}
	}
	for _, id := range sortedKeys(s.Histograms) {
		base, labels := ParseID(id)
		if err := emitType(base, "histogram"); err != nil {
			return err
		}
		h := s.Histograms[id]
		var cum int64
		for i, c := range h.Buckets {
			cum += c
			_, hi := BucketBounds(i)
			le := fmt.Sprintf("%g", hi)
			if i == len(h.Buckets)-1 {
				le = "+Inf"
			}
			// OpenMetrics-style exemplar suffix: the bucket's sampled
			// observation, keyed by trace ID, rides after a " # ".
			exemplar := ""
			if i < len(h.Exemplars) && h.Exemplars[i] != nil {
				e := h.Exemplars[i]
				exemplar = fmt.Sprintf(" # {trace_id=%q} %d", e.TraceID, e.Value)
			}
			if _, err := fmt.Fprintf(w, "%s %d%s\n", MetricID(base+"_bucket", flatten(labels, "le", le)...), cum, exemplar); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", MetricID(base+"_sum", flatten(labels)...), h.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", MetricID(base+"_count", flatten(labels)...), h.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteProm writes the registry's current state in Prometheus text form.
func (r *Registry) WriteProm(w io.Writer) error { return r.Snapshot().WriteProm(w) }

// flatten turns a label map back into a pair list, appending extra pairs.
func flatten(labels map[string]string, extra ...string) []string {
	out := make([]string, 0, len(labels)*2+len(extra))
	for _, k := range sortedKeys(labels) {
		out = append(out, k, labels[k])
	}
	return append(out, extra...)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
