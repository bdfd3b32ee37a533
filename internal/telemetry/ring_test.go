package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestRingObserveAndSnapshot(t *testing.T) {
	r := NewRing(4)
	if len(r.slots) != 4 {
		t.Fatalf("capacity = %d, want 4", len(r.slots))
	}
	r.ObserveN(2, 1, 10)
	r.ObserveN(2, 1, 5)
	r.ObserveN(3, 1, 7)
	got := r.Snapshot(nil)
	want := []RingPoint{{Index: 2, Count: 2, Sum: 15}, {Index: 3, Count: 1, Sum: 7}}
	if len(got) != len(want) {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRingEvictsStaleWindowOnWrap(t *testing.T) {
	r := NewRing(4)
	r.ObserveN(1, 1, 100)
	// Window 5 shares slot 1 with window 1 and is newer: it evicts it.
	r.ObserveN(5, 1, 3)
	for _, p := range r.Snapshot(nil) {
		if p.Index == 1 {
			t.Fatalf("window 1 survived eviction: %+v", p)
		}
		if p.Index == 5 && (p.Count != 1 || p.Sum != 3) {
			t.Fatalf("window 5 = %+v, want count 1 sum 3", p)
		}
	}
	// A late observation into the evicted window must be dropped, not
	// resurrect it or corrupt window 5.
	r.ObserveN(1, 1, 999)
	got := r.Snapshot(nil)
	if len(got) != 1 || got[0] != (RingPoint{Index: 5, Count: 1, Sum: 3}) {
		t.Fatalf("after late write: %+v", got)
	}
}

func TestRingDropsNegativeWindows(t *testing.T) {
	r := NewRing(4)
	r.ObserveN(-1, 1, 5)
	if got := r.Snapshot(nil); len(got) != 0 {
		t.Fatalf("negative window recorded: %+v", got)
	}
}

func TestRingHoldsNewestCapWindows(t *testing.T) {
	r := NewRing(4)
	for w := int64(0); w < 10; w++ {
		r.ObserveN(w, 1, 1)
	}
	got := r.Snapshot(nil)
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for i, p := range got {
		if want := int64(6 + i); p.Index != want {
			t.Fatalf("window[%d].Index = %d, want %d", i, p.Index, want)
		}
	}
}

func TestRingConcurrentObserve(t *testing.T) {
	r := NewRing(8)
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.ObserveN(int64(i%8), 1, 1)
			}
		}()
	}
	wg.Wait()
	var count int64
	for _, p := range r.Snapshot(nil) {
		count += p.Count
	}
	if count != goroutines*per {
		t.Fatalf("total count = %d, want %d", count, goroutines*per)
	}
}

func TestMergeRingPointsSumsAndTruncates(t *testing.T) {
	a := []RingPoint{{1, 2, 10}, {3, 1, 5}}
	b := []RingPoint{{1, 1, 1}, {2, 4, 8}}
	got := MergeRingPoints(a, b, 2)
	want := []RingPoint{{2, 4, 8}, {3, 1, 5}}
	if len(got) != len(want) {
		t.Fatalf("merge = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// max <= 0 keeps everything, with same-index windows summed.
	all := MergeRingPoints(a, b, 0)
	if len(all) != 3 || all[0] != (RingPoint{1, 3, 11}) {
		t.Fatalf("merge(all) = %+v", all)
	}
}

// populateRing fills a ring with a deterministic pseudo-random workload.
func populateRing(seed int64) *Ring {
	r := NewRing(16)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 500; i++ {
		r.ObserveN(int64(rng.Intn(32)), 1, int64(rng.Intn(1000)))
	}
	return r
}

// TestMergeRingPointsPermutationIdentical pins the cross-replica merge
// contract: merging any permutation of replica snapshots yields
// byte-identical JSON.
func TestMergeRingPointsPermutationIdentical(t *testing.T) {
	snaps := make([][]RingPoint, 4)
	for i := range snaps {
		snaps[i] = populateRing(int64(i + 1)).Snapshot(nil)
	}
	merge := func(order []int) []byte {
		var acc []RingPoint
		for _, i := range order {
			acc = MergeRingPoints(acc, snaps[i], 16)
		}
		b, err := json.Marshal(acc)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := merge([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		if got := merge(order); !bytes.Equal(got, want) {
			t.Fatalf("order %v merged to different bytes:\n%s\nvs\n%s", order, got, want)
		}
	}
}

// TestMergeHistogramSnapshotsPermutationIdentical pins the same contract
// for histogram merges, including quantile recomputation and exemplar
// dropping (an exemplar is one replica's observation; keeping it would
// make merged bytes order-dependent).
func TestMergeHistogramSnapshotsPermutationIdentical(t *testing.T) {
	snaps := make([]HistogramSnapshot, 4)
	for i := range snaps {
		h := NewHistogram(DefaultHistBuckets)
		rng := rand.New(rand.NewSource(int64(i + 1)))
		for j := 0; j < 300; j++ {
			h.ObserveExemplar(int64(rng.Intn(1<<16)), uint64(i+1))
		}
		snaps[i] = h.Snapshot()
	}
	merge := func(order []int) []byte {
		var acc HistogramSnapshot
		for _, i := range order {
			acc = MergeHistogramSnapshots(acc, snaps[i])
		}
		b, err := json.Marshal(acc)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := merge([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {0, 2, 1, 3}} {
		if got := merge(order); !bytes.Equal(got, want) {
			t.Fatalf("order %v merged to different bytes", order)
		}
	}
	// Sanity: the merge preserved total mass and recomputed quantiles.
	var total int64
	for _, s := range snaps {
		total += s.Count
	}
	var acc HistogramSnapshot
	for _, s := range snaps {
		acc = MergeHistogramSnapshots(acc, s)
	}
	if acc.Count != total {
		t.Fatalf("merged Count = %d, want %d", acc.Count, total)
	}
	if len(acc.Exemplars) != 0 {
		t.Fatalf("merged snapshot kept exemplars: %+v", acc.Exemplars)
	}
	if acc.P50 <= 0 || acc.P99 < acc.P50 {
		t.Fatalf("merged quantiles not recomputed: p50=%v p99=%v", acc.P50, acc.P99)
	}
}

// TestRingObserveNEqualsObserveLoop: one ObserveN of n observations is n
// single-observation ObserveN calls, under the same window rules (reset
// on a newer window, drop an older one).
func TestRingObserveNEqualsObserveLoop(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	for _, step := range []struct{ w, n, each int64 }{
		{3, 5, 10}, {3, 2, -4}, {7, 3, 1}, {3, 9, 100}, {-1, 2, 5}, {8, 1, 6},
	} {
		for i := int64(0); i < step.n; i++ {
			a.ObserveN(step.w, 1, step.each)
		}
		b.ObserveN(step.w, step.n, step.n*step.each)
	}
	if got, want := b.Snapshot(nil), a.Snapshot(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("batched ring %+v, one-at-a-time ring %+v", got, want)
	}
}
