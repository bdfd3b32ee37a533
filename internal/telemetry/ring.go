package telemetry

import (
	"sort"
	"sync"
)

// RingPoint is one time window of a fixed-size time-series ring: the
// window's absolute index (time / window width — comparable across
// replicas that agree on the width), how many observations landed in it,
// and their sum. All fields are integers so cross-replica merging is
// exact, commutative, and associative — the property the byte-identical
// merge tests pin.
type RingPoint struct {
	Index int64 `json:"index"`
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

// Ring is a fixed-size ring of consecutive time windows — the bounded
// memory behind per-window counter rates ("energy saved per second over
// the last minute") where a plain counter only answers "ever". Slot
// reuse is by window index modulo capacity: observing window w evicts
// the stale window that previously occupied w's slot, so the ring always
// holds at most n (NewRing) of the most recently observed windows and never
// allocates after construction. Observations into windows older than
// what their slot currently holds are dropped (late data cannot resurrect
// an evicted window). Safe for concurrent use.
type Ring struct {
	mu    sync.Mutex
	slots []RingPoint
}

// DefaultRingWindows is the ring capacity used when a caller passes
// n <= 0: with 1-second windows, a bit over a minute of history.
const DefaultRingWindows = 64

// NewRing returns a ring holding up to n windows (n <= 0 takes
// DefaultRingWindows).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingWindows
	}
	r := &Ring{slots: make([]RingPoint, n)}
	for i := range r.slots {
		r.slots[i].Index = -1
	}
	return r
}

// ObserveN adds n observations summing to sum to window index w (w must
// be >= 0; negative windows are dropped) under one lock acquisition. A w
// newer than its slot's occupant resets the slot; a w older is dropped.
func (r *Ring) ObserveN(w, n, sum int64) {
	if w < 0 {
		return
	}
	slot := int(w % int64(len(r.slots)))
	r.mu.Lock()
	p := &r.slots[slot]
	switch {
	case p.Index == w:
	case p.Index < w:
		*p = RingPoint{Index: w}
	default:
		r.mu.Unlock()
		return
	}
	p.Count += n
	p.Sum += sum
	r.mu.Unlock()
}

// Snapshot appends the ring's occupied windows to dst in ascending window
// order and returns it — the deterministic serialization merged across
// replicas.
func (r *Ring) Snapshot(dst []RingPoint) []RingPoint {
	r.mu.Lock()
	for _, p := range r.slots {
		if p.Index >= 0 {
			dst = append(dst, p)
		}
	}
	r.mu.Unlock()
	sort.Slice(dst, func(i, j int) bool { return dst[i].Index < dst[j].Index })
	return dst
}

// MergeRingPoints merges two ring snapshots: windows with the same index
// sum exactly, the result is ascending by index, and only the newest max
// windows survive (max <= 0 keeps everything). Integer sums make the
// merge commutative and associative, so any replica permutation produces
// the same bytes.
func MergeRingPoints(a, b []RingPoint, max int) []RingPoint {
	byIdx := make(map[int64]RingPoint, len(a)+len(b))
	for _, p := range a {
		byIdx[p.Index] = p
	}
	for _, p := range b {
		q := byIdx[p.Index]
		q.Index = p.Index
		q.Count += p.Count
		q.Sum += p.Sum
		byIdx[p.Index] = q
	}
	out := make([]RingPoint, 0, len(byIdx))
	for _, p := range byIdx {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// MergeHistogramSnapshots merges two log-2 histogram snapshots by
// element-wise bucket addition (the shorter bucket array is treated as
// zero-padded). Quantiles are recomputed from the merged buckets and
// exemplars are dropped — an exemplar is one replica's observation, and
// keeping either side's would make the merged bytes depend on replica
// order.
func MergeHistogramSnapshots(a, b HistogramSnapshot) HistogramSnapshot {
	n := len(a.Buckets)
	if len(b.Buckets) > n {
		n = len(b.Buckets)
	}
	buckets := make([]int64, n)
	for i, c := range a.Buckets {
		buckets[i] += c
	}
	for i, c := range b.Buckets {
		buckets[i] += c
	}
	return HistogramSnapshot{
		Buckets: buckets,
		Count:   a.Count + b.Count,
		Sum:     a.Sum + b.Sum,
		P50:     Quantile(buckets, 0.50),
		P95:     Quantile(buckets, 0.95),
		P99:     Quantile(buckets, 0.99),
	}
}
