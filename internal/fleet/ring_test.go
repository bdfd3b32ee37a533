package fleet

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ssmdvfs/internal/faults"
)

func testKeys(n int, seed uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		// (gpu, cluster) pairs the way a fleet sees them: many GPUs, 24
		// clusters each. Key places a GPU, so n keys are only ⌈n/24⌉ ring
		// positions (834 for 20 000), each repeated once per cluster.
		keys[i] = Key(seed, int32(i/24), int32(i%24))
	}
	return keys
}

var testReplicas = []string{"10.0.0.1:9000", "10.0.0.2:9000", "10.0.0.3:9000", "10.0.0.4:9000", "10.0.0.5:9000"}

// TestRingDeterministicAssignments pins the determinism contract: the
// same seed and replica set produce identical assignments regardless of
// input order or process, and a different seed shards differently.
func TestRingDeterministicAssignments(t *testing.T) {
	keys := testKeys(20000, 7)
	r1, err := NewRing(RingOptions{Replicas: testReplicas, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	shuffled := []string{testReplicas[2], testReplicas[0], testReplicas[4], testReplicas[1], testReplicas[3]}
	r2, err := NewRing(RingOptions{Replicas: shuffled, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a1 := make([]int, len(keys))
	for i, k := range keys {
		a1[i], _ = r1.Lookup(k)
		if s2, _ := r2.Lookup(k); a1[i] != s2 {
			t.Fatalf("key %d: assignment %d vs %d despite same seed+set", i, a1[i], s2)
		}
	}

	r3, err := NewRing(RingOptions{Replicas: testReplicas, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i, k := range keys {
		if s, _ := r3.Lookup(k); s != a1[i] {
			diff++
		}
	}
	// A different seed is a different ring: most keys should land
	// elsewhere (4/5 in expectation for 5 replicas).
	if diff < len(keys)/2 {
		t.Fatalf("seed change moved only %d/%d keys", diff, len(keys))
	}

	// And no replica should be starved: with 128 vnodes each of 5
	// replicas should hold a meaningful share.
	counts := make([]int, len(testReplicas))
	for _, s := range a1 {
		counts[s]++
	}
	for i, c := range counts {
		if c < len(keys)/20 { // ≥ 5% each (ideal is 20%)
			t.Fatalf("replica %d owns only %d/%d keys", i, c, len(keys))
		}
	}
}

// TestRingRebalanceBounds pins the consistent-hashing guarantee: a ring
// built without one of N replicas reassigns exactly the keys that
// replica owned — every other key keeps its owner — and the removed
// replica owned roughly 1/N of the space.
func TestRingRebalanceBounds(t *testing.T) {
	keys := testKeys(20000, 3)
	full, err := NewRing(RingOptions{Replicas: testReplicas, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	without := append([]string(nil), testReplicas[:2]...)
	without = append(without, testReplicas[3:]...) // drop replica index 2
	smaller, err := NewRing(RingOptions{Replicas: without, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fullNames, smallNames := full.Replicas(), smaller.Replicas()
	removed := testReplicas[2]

	moved, owned := 0, 0
	for _, k := range keys {
		a, _ := full.Lookup(k)
		b, _ := smaller.Lookup(k)
		if fullNames[a] == removed {
			owned++
			continue
		}
		if fullNames[a] != smallNames[b] {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("removing one replica moved %d keys owned by others; want 0", moved)
	}
	n := len(testReplicas)
	ideal := len(keys) / n
	if owned < ideal/2 || owned > 2*ideal {
		t.Fatalf("removed replica owned %d keys; want ~%d (1/%d of %d)", owned, ideal, n, len(keys))
	}
}

// TestRingHealthFlipMovesOnlyFlippedKeys checks that marking a replica
// unhealthy moves exactly its keys to successors, and recovery restores
// the original assignment byte for byte.
func TestRingHealthFlipMovesOnlyFlippedKeys(t *testing.T) {
	keys := testKeys(10000, 11)
	r, err := NewRing(RingOptions{Replicas: testReplicas, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	before := make([]int, len(keys))
	for i, k := range keys {
		before[i], _ = r.Lookup(k)
	}

	const down = 2
	if !r.SetHealthy(down, false) {
		t.Fatal("SetHealthy(false) reported no change")
	}
	if r.Healthy() != len(testReplicas)-1 {
		t.Fatalf("healthy = %d", r.Healthy())
	}
	for i, k := range keys {
		during, _ := r.Lookup(k)
		if before[i] == down {
			if during == down {
				t.Fatalf("key %d still assigned to unhealthy replica", i)
			}
		} else if during != before[i] {
			t.Fatalf("key %d moved from healthy replica %d to %d", i, before[i], during)
		}
	}

	if !r.SetHealthy(down, true) {
		t.Fatal("SetHealthy(true) reported no change")
	}
	for i, k := range keys {
		if s, _ := r.Lookup(k); s != before[i] {
			t.Fatalf("key %d did not move home after recovery", i)
		}
	}
}

func TestRingRejectsBadConfig(t *testing.T) {
	if _, err := NewRing(RingOptions{}); err == nil {
		t.Fatal("empty replica set accepted")
	}
	if _, err := NewRing(RingOptions{Replicas: []string{"a", "a"}}); err == nil {
		t.Fatal("duplicate replicas accepted")
	}
}

func TestRingAllUnhealthy(t *testing.T) {
	r, err := NewRing(RingOptions{Replicas: testReplicas[:2], Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.SetHealthy(0, false)
	r.SetHealthy(1, false)
	if _, ok := r.Lookup(12345); ok {
		t.Fatal("lookup succeeded with no healthy replicas")
	}
}

// balance returns the rows on the busiest of r replicas over the mean
// when gpus GPUs send 24 rows each and key places row (gpu, cluster).
func balance(tb testing.TB, gpus, r int, seed uint64, key func(gpu, cluster int32) uint64) float64 {
	reps := make([]string, r)
	for i := range reps {
		reps[i] = fmt.Sprintf("10.0.0.%d:9000", i+1)
	}
	ring, err := NewRing(RingOptions{Replicas: reps, Seed: seed, VNodes: 128})
	if err != nil {
		tb.Fatal(err)
	}
	rows := make([]int, r)
	for g := int32(0); g < int32(gpus); g++ {
		for c := int32(0); c < 24; c++ {
			owner, _ := ring.Lookup(key(g, c))
			rows[owner]++
		}
	}
	return float64(slices.Max(rows)) * float64(r) / float64(24*gpus)
}

// TestRingBalancesGPUs is what placing a GPU, not a cluster, costs in
// balance: a replica's load comes in whole GPUs, so a fleet balances only
// with several GPUs per replica. Under -v it prints the table
// EXPERIMENTS.md quotes — max/mean rows per replica with Key's GPU
// positions against one position per (gpu, cluster) pair, at seed 1 and
// 128 vnodes — and it fails if any of seeds 1–8 puts more than 1.5× the
// mean on a replica of a fleet with 128 GPUs or more per replica.
func TestRingBalancesGPUs(t *testing.T) {
	var table strings.Builder
	fmt.Fprintf(&table, "%6s %3s %9s %9s\n", "GPUs", "R", "GPU key", "pair key")
	for _, gpus := range []int{16, 64, 256, 1024} {
		for _, r := range []int{2, 4, 8} {
			for seed := uint64(1); seed <= 8; seed++ {
				byGPU := balance(t, gpus, r, seed, func(g, c int32) uint64 { return Key(seed, g, c) })
				if gpus/r >= 128 && byGPU > 1.5 {
					t.Errorf("%d GPUs on %d replicas, seed %d: the busiest replica carries %.2f× the mean", gpus, r, seed, byGPU)
				}
				if seed == 1 {
					byPair := balance(t, gpus, r, seed, func(g, c int32) uint64 {
						return faults.Mix64(seed ^ uint64(uint32(g))<<21 ^ uint64(uint32(c)))
					})
					fmt.Fprintf(&table, "%6d %3d %9.2f %9.2f\n", gpus, r, byGPU, byPair)
				}
			}
		}
	}
	t.Logf("max/mean rows per replica, seed 1, 128 vnodes:\n%s", table.String())
}
