package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// DefaultHistBuckets is the bucket count used when none is specified:
// bucket 31 opens at 2^30, enough for any microsecond- or cycle-valued
// observation this project makes.
const DefaultHistBuckets = 32

// Histogram is a fixed-size log-2 histogram: bucket i counts observations
// v with 2^(i-1) <= v < 2^i (bucket 0 counts v < 1), and the last bucket
// absorbs the overflow tail. Observe is a pair of atomic adds —
// allocation-free and safe for concurrent use.
type Histogram struct {
	buckets   []atomic.Int64
	count     atomic.Int64
	sum       atomic.Int64
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links a histogram bucket to one concrete observation that
// landed in it — the trace ID of a sampled decision plus its value —
// so a p999 bucket points straight at a flight-recorder entry instead
// of an anonymous count. Last write wins per bucket.
type Exemplar struct {
	TraceID string `json:"trace_id"`
	Value   int64  `json:"value"`
}

// NewHistogram returns a histogram with n buckets (minimum 2).
func NewHistogram(n int) *Histogram {
	if n < 2 {
		n = 2
	}
	return &Histogram{
		buckets:   make([]atomic.Int64, n),
		exemplars: make([]atomic.Pointer[Exemplar], n),
	}
}

// BucketIndex returns the bucket an observation falls in for a histogram
// with n buckets.
func BucketIndex(v int64, n int) int {
	if v <= 0 {
		return 0
	}
	// bits.Len64 is floor(log2(v))+1, exactly the [2^(i-1), 2^i) bucket.
	b := bits.Len64(uint64(v))
	if b >= n {
		return n - 1
	}
	return b
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	h.buckets[BucketIndex(v, len(h.buckets))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveBinned adds observations the caller has already binned with
// BucketIndex(v, len(bins)): bins[i] of them fell in bucket i and their
// values sum to sum. len(bins) must be the histogram's bucket count.
// Empty bins cost nothing, so a batch of similar values is a handful of
// atomic adds instead of three per value.
func (h *Histogram) ObserveBinned(bins []int64, sum int64) {
	var n int64
	for i, c := range bins {
		if c != 0 {
			h.buckets[i].Add(c)
			n += c
		}
	}
	h.count.Add(n)
	h.sum.Add(sum)
}

// ObserveExemplar records one observation and, when traceID is nonzero,
// pins it as the bucket's exemplar. The traceID==0 path is exactly
// Observe — unsampled requests pay nothing extra.
func (h *Histogram) ObserveExemplar(v int64, traceID uint64) {
	i := BucketIndex(v, len(h.buckets))
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if traceID != 0 {
		h.exemplars[i].Store(&Exemplar{TraceID: FormatTraceID(traceID), Value: v})
	}
}

// Exemplars copies the current per-bucket exemplars (nil when no bucket
// has one; entries are nil for exemplar-less buckets).
func (h *Histogram) Exemplars() []*Exemplar {
	var out []*Exemplar
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			if out == nil {
				out = make([]*Exemplar, len(h.exemplars))
			}
			out[i] = e
		}
	}
	return out
}

// Buckets copies the current bucket counts.
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Snapshot captures the histogram with precomputed common quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	b := h.Buckets()
	return HistogramSnapshot{
		Buckets:   b,
		Count:     h.count.Load(),
		Sum:       h.sum.Load(),
		P50:       Quantile(b, 0.50),
		P95:       Quantile(b, 0.95),
		P99:       Quantile(b, 0.99),
		Exemplars: h.Exemplars(),
	}
}

// BucketBounds returns bucket i's value range [lo, hi).
func BucketBounds(i int) (lo, hi float64) {
	if i <= 0 {
		return 0, 1
	}
	return math.Pow(2, float64(i-1)), math.Pow(2, float64(i))
}

// Quantile estimates a quantile from log-2 bucket counts by linear
// interpolation within the winning bucket. The defined edge semantics —
// pinned by TestQuantileEdgeSemantics so JSON and Prometheus output can
// never carry NaN:
//
//   - an empty histogram yields 0 for every q (no observations, no
//     estimate);
//   - q is clamped to [0, 1], and a NaN q reads as 0;
//   - estimates past the last bucket saturate at that bucket's upper
//     bound (log-2 histograms cannot resolve the overflow tail).
func Quantile(buckets []int64, q float64) float64 {
	if math.IsNaN(q) || q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		if cum+float64(c) >= target {
			frac := (target - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += float64(c)
	}
	_, hi := BucketBounds(len(buckets) - 1)
	return hi
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
