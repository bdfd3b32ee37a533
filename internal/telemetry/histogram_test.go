package telemetry

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestQuantileEmptyHistogram(t *testing.T) {
	h := NewHistogram(20)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := Quantile(h.Buckets(), q); got != 0 {
			t.Fatalf("empty histogram q=%g → %g, want 0", q, got)
		}
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	h := NewHistogram(20)
	h.Observe(100) // bucket [64, 128)
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := Quantile(h.Buckets(), q)
		if got < 64 || got > 128 {
			t.Fatalf("q=%g → %g, want within the observation's bucket [64,128)", q, got)
		}
	}
}

func TestQuantileAllInOverflowBucket(t *testing.T) {
	h := NewHistogram(8) // last bucket opens at 2^6 = 64
	for i := 0; i < 100; i++ {
		h.Observe(1 << 20) // far past the last bucket
	}
	lo, hi := BucketBounds(7)
	for _, q := range []float64{0.5, 0.99} {
		if got := Quantile(h.Buckets(), q); got < lo || got > hi {
			t.Fatalf("overflow-only q=%g → %g, want saturation inside [%g,%g]", q, got, lo, hi)
		}
	}
}

func TestQuantileZeroAndNegativeLandInFirstBucket(t *testing.T) {
	h := NewHistogram(8)
	h.Observe(0)
	h.Observe(-5)
	if got := h.Buckets()[0]; got != 2 {
		t.Fatalf("bucket 0 = %d, want 2", got)
	}
	if got := Quantile(h.Buckets(), 0.5); got < 0 || got >= 1 {
		t.Fatalf("q=0.5 → %g, want within [0,1)", got)
	}
}

// TestQuantileTracksExactQuantiles cross-checks the histogram estimate
// against exact sample quantiles on a seeded log-normal-ish sample. A
// log-2 histogram's estimate always stays inside the true value's bucket,
// so it can be off by at most 2× in either direction.
func TestQuantileTracksExactQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	h := NewHistogram(DefaultHistBuckets)
	sample := make([]float64, n)
	for i := range sample {
		v := math.Exp(rng.NormFloat64()*1.5 + 6) // median ~e^6 ≈ 403
		sample[i] = v
		h.Observe(int64(v))
	}
	sort.Float64s(sample)
	for _, q := range []float64{0.50, 0.95, 0.99} {
		exact := sample[int(q*float64(n-1))]
		est := Quantile(h.Buckets(), q)
		if est < exact/2 || est > exact*2 {
			t.Fatalf("q=%g: estimate %.1f vs exact %.1f (outside 2× band)", q, est, exact)
		}
	}
}

func TestBucketIndexMatchesBounds(t *testing.T) {
	for _, v := range []int64{1, 2, 3, 4, 7, 8, 1023, 1024} {
		i := BucketIndex(v, 64)
		lo, hi := BucketBounds(i)
		if float64(v) < lo || float64(v) >= hi {
			t.Fatalf("v=%d → bucket %d [%g,%g) does not contain it", v, i, lo, hi)
		}
	}
}

// TestObserveBinnedEqualsObserveLoop: values binned by the caller land
// exactly where Observe would have put them.
func TestObserveBinnedEqualsObserveLoop(t *testing.T) {
	a, b := NewHistogram(DefaultHistBuckets), NewHistogram(DefaultHistBuckets)
	var bins [DefaultHistBuckets]int64
	var sum int64
	for _, v := range []int64{0, 0, 1, 5, 5, 1 << 20, 1 << 40, 999} {
		a.Observe(v)
		bins[BucketIndex(v, len(bins))]++
		sum += v
	}
	b.ObserveBinned(bins[:], sum)
	if got, want := b.Snapshot(), a.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("binned %+v, observed %+v", got, want)
	}
}
