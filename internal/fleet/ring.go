// Package fleet is the multi-replica serving tier: a consistent-hash
// ring shards GPUs across N ssmdvfsd replicas (every (gpu, cluster)
// decision key of a GPU goes to the replica that owns the GPU), a router
// splits each frame into one part per owning replica — one part for one
// GPU's epoch frame — and sends every part whole as a keyed frame, and
// admission control sheds overload into the analytical PCSTALL fallback
// instead of queuing past the decision deadline. One daemon serves one
// GPU's 24 clusters; this package is how thousands of GPUs get
// microsecond-scale decisions from a bounded set of replicas — and the
// architecture the later scaling work (batched inference, online learning
// rollout) inherits.
package fleet

import (
	"fmt"
	"sort"
	"sync"

	"ssmdvfs/internal/faults"
)

// DefaultVNodes is the virtual-node count per replica: enough points
// that removing one of N replicas moves close to the ideal 1/N of keys,
// cheap enough that ring rebuilds are sub-millisecond.
const DefaultVNodes = 128

// Key places a (gpu, cluster) identity in the ring's 64-bit hash space.
// Only the GPU is hashed: all of a GPU's clusters share one position, so
// the epoch frame a GPU sends goes whole to one replica, and that replica
// holds every feedback chain and ledger group of the GPU. The cluster is
// ignored; it is a parameter so callers name the whole identity they
// route. The mix is seeded so two fleets with different seeds shard the
// same GPUs differently.
func Key(seed uint64, gpu, _ int32) uint64 {
	return faults.Mix64(seed ^ uint64(uint32(gpu))<<21)
}

// point is one virtual node on the ring.
type point struct {
	hash  uint64
	shard int // index into the replica table
}

// Ring is a consistent-hash ring with virtual nodes and per-replica
// health states. Placement is deterministic: the same seed, replica set,
// and vnode count produce byte-identical assignments on every run and
// every machine. Removing a replica (or flipping it unhealthy) moves
// only the keys it owned — every other key keeps its shard — so a
// rebalance touches ~1/N of the key space, not all of it.
//
// Lookup is lock-free on the hot path apart from an RWMutex read lock;
// mutation (Add/Remove/SetHealthy) is rare control-plane work.
type Ring struct {
	seed   uint64
	vnodes int

	mu       sync.RWMutex
	names    []string // stable shard index → replica name
	healthy  []bool   // by shard index
	points   []point  // sorted by hash; includes unhealthy replicas
	nHealthy int
}

// RingOptions configures a Ring.
type RingOptions struct {
	// Replicas is the initial replica set (addresses or names). Order
	// does not matter: the ring sorts them for stable shard indices.
	Replicas []string
	// VNodes is the virtual-node count per replica (default DefaultVNodes).
	VNodes int
	// Seed perturbs every hash, so distinct fleets shard differently.
	Seed uint64
}

// NewRing builds a ring over the given replica set, all healthy.
func NewRing(opts RingOptions) (*Ring, error) {
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one replica")
	}
	if opts.VNodes <= 0 {
		opts.VNodes = DefaultVNodes
	}
	names := append([]string(nil), opts.Replicas...)
	sort.Strings(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			return nil, fmt.Errorf("fleet: duplicate replica %q", names[i])
		}
	}
	r := &Ring{seed: opts.Seed, vnodes: opts.VNodes, names: names,
		healthy: make([]bool, len(names)), nHealthy: len(names)}
	for i := range r.healthy {
		r.healthy[i] = true
	}
	r.rebuild()
	return r, nil
}

// rebuild recomputes the sorted vnode points; callers hold mu.
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for shard, name := range r.names {
		base := faults.Mix64(r.seed ^ faults.HashString(name))
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, point{
				hash:  faults.Mix64(base ^ uint64(v)*0x9e3779b97f4a7c15),
				shard: shard,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (astronomically rare) break on shard index so placement
		// stays deterministic.
		return r.points[i].shard < r.points[j].shard
	})
}

// Seed returns the ring's hash seed (for Key).
func (r *Ring) Seed() uint64 { return r.seed }

// Replicas returns the stable shard-index → name table.
func (r *Ring) Replicas() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.names...)
}

// Healthy returns how many replicas are currently healthy.
func (r *Ring) Healthy() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nHealthy
}

// IsHealthy reports one shard's health state.
func (r *Ring) IsHealthy(shard int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return shard >= 0 && shard < len(r.healthy) && r.healthy[shard]
}

// SetHealthy flips one shard's health state, reporting whether the state
// changed. Unhealthy replicas keep their ring points — their keys simply
// skip forward to the next healthy successor, and move back the moment
// the replica recovers, so a health flap moves only that replica's keys.
func (r *Ring) SetHealthy(shard int, healthy bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if shard < 0 || shard >= len(r.healthy) || r.healthy[shard] == healthy {
		return false
	}
	r.healthy[shard] = healthy
	if healthy {
		r.nHealthy++
	} else {
		r.nHealthy--
	}
	return true
}

// Lookup maps a key to its owning shard: the first healthy replica at or
// clockwise after the key's position. ok is false when no replica is
// healthy.
func (r *Ring) Lookup(key uint64) (shard int, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.nHealthy == 0 || len(r.points) == 0 {
		return 0, false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for n := 0; n < len(r.points); n++ {
		p := r.points[(i+n)%len(r.points)]
		if r.healthy[p.shard] {
			return p.shard, true
		}
	}
	return 0, false
}

// LookupName is Lookup returning the replica name.
func (r *Ring) LookupName(key uint64) (string, bool) {
	shard, ok := r.Lookup(key)
	if !ok {
		return "", false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names[shard], true
}

// Assignments maps every key to its shard index (-1 when no replica is
// healthy) — the bulk form tests and rebalance audits use.
func (r *Ring) Assignments(keys []uint64) []int {
	out := make([]int, len(keys))
	for i, k := range keys {
		if shard, ok := r.Lookup(k); ok {
			out[i] = shard
		} else {
			out[i] = -1
		}
	}
	return out
}
