package gpusim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ssmdvfs/internal/kernels"
)

// goldenStreamDigest is the SHA-256 of the statistics stream produced by
// goldenStream, recorded with the per-cycle stepper of commit b741b78
// (before the event-skipping scheduler). The scheduler's contract is that
// it changes host time only; any edit that moves this digest has changed a
// simulated number.
const goldenStreamDigest = "e134fd80b32d0288db55f358e985c67add4b78af71fb3425c528fcf8324dbdd1"

// toggleController changes level every other epoch, staggered by cluster,
// so the stream contains voltage and frequency-only IVR transitions.
type toggleController struct{ levels int }

func (toggleController) Name() string { return "toggle" }
func (c toggleController) Decide(s EpochStats) int {
	return ((s.Epoch/2)*5 + s.Cluster) % c.levels
}

// goldenStream drives every suite kernel under both scheduling policies
// through the simulator's whole public stepping surface — controller-driven
// level changes, an unaligned RunUntil, then Clone + ForceLevel + Run the
// way datagen.generate replays a scaling window (cut off by Run's time
// limit three epochs on, to bound the test), then Run to completion — and
// hashes every field of every EpochStats plus both Results.
func goldenStream(t *testing.T) string {
	h := sha256.New()
	for _, sched := range []SchedulerPolicy{SchedLRR, SchedGTO} {
		for _, spec := range kernels.Suite() {
			cfg := SmallConfig()
			cfg.Scheduler = sched
			sim, err := New(cfg, spec.Build(0.3))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %v\n", spec.Name, sched)
			// %+v prints floats in shortest round-trip form, so the text is
			// exact, and it picks up any field added to EpochStats later.
			observe := func(s EpochStats) { fmt.Fprintf(h, "%+v\n", s) }
			sim.SetObserver(observe)
			sim.SetController(toggleController{levels: cfg.OPs.Len()})

			b := cfg.EpochPs + cfg.EpochPs/2 + 12_345
			sim.RunUntil(b)

			replay := sim.Clone()
			replay.ForceLevel(1)
			replay.RunUntil(b + cfg.EpochPs + 1)
			replay.ForceLevel(cfg.OPs.Default())
			fmt.Fprintf(h, "replay %+v\n", replay.Run(b+3*cfg.EpochPs))

			fmt.Fprintf(h, "run %+v\n", sim.Run(testMaxPs))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenStatsStream(t *testing.T) {
	if got := goldenStream(t); got != goldenStreamDigest {
		t.Fatalf("statistics stream digest = %s, want %s: a simulated number changed", got, goldenStreamDigest)
	}
}
