//go:build race

package fleet

// raceEnabled lets allocation-count guards skip under the race detector,
// which makes sync.Pool deliberately drop and bypass its caches.
const raceEnabled = true
