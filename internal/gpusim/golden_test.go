package gpusim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ssmdvfs/internal/kernels"
)

// goldenStreamDigests are the SHA-256 of the statistics stream goldenStream
// produces under each scheduling policy, recorded from commit 51aa24e, whose
// one digest over both policies was still the one recorded with the
// per-cycle stepper of commit b741b78 (before the event-skipping
// scheduler). The scheduler's contract is that it changes host time only;
// any edit that moves a digest has changed a simulated number under that
// policy. The GTO digest was re-recorded once since, on purpose: step read
// the greedy warp while its own issues rewrote it, skipping one warp and
// visiting another twice in a cycle (3ff7d23a… before the fix).
var goldenStreamDigests = map[SchedulerPolicy]string{
	SchedLRR: "56f8b6bc5c510c815880e7efb9a758e09952395ae63d308b9d2f9b702d061b70",
	SchedGTO: "a2837524b2b2554cc788cf53f62409488526b86dbf1f64bec1ec931d7201a2f3",
}

// toggleController changes level every other epoch, staggered by cluster,
// so the stream contains voltage and frequency-only IVR transitions.
type toggleController struct{ levels int }

func (toggleController) Name() string { return "toggle" }
func (c toggleController) Decide(s EpochStats) int {
	return ((s.Epoch/2)*5 + s.Cluster) % c.levels
}

// titanXStreamDigest is the SHA-256 of titanXStream, recorded from commit
// 9cfc3f4, whose stepper still interleaved the clusters one step at a time.
// Its kernels are the memory-heavy ones, so on 24 clusters over 8 DRAM
// channels many L2 and DRAM accesses from different clusters fall on the
// same picosecond: the digest pins the order they are performed in.
const titanXStreamDigest = "366de5c6a3486638f635ee61d2cd7f834ea05c538bd5d7a01dda79739741a393"

// titanXStreamKernels are the kernels titanXStream runs.
var titanXStreamKernels = []string{
	"parboil.stencil", "polybench.atax", "rodinia.cfd",
	"rodinia.streamcluster", "parboil.spmv", "rodinia.bfs",
}

// goldenStream drives each kernel at the given scale, under cfg, through
// the simulator's whole public stepping surface — controller-driven level
// changes, an unaligned RunUntil, then Clone + ForceLevel + Run the way
// datagen.generate replays a scaling window (cut off by Run's time limit
// three epochs on, to bound the test), then Run to completion — and hashes
// every field of every EpochStats plus both Results.
func goldenStream(t *testing.T, cfg Config, specs []kernels.Spec, scale float64) string {
	h := sha256.New()
	for _, spec := range specs {
		sim, err := New(cfg, spec.Build(scale))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %v\n", spec.Name, cfg.Scheduler)
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
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStatsStream runs every suite kernel at scale 0.3 on SmallConfig
// (4 clusters, 4 DRAM channels), once per scheduling policy.
func TestGoldenStatsStream(t *testing.T) {
	for _, sched := range []SchedulerPolicy{SchedLRR, SchedGTO} {
		cfg := SmallConfig()
		cfg.Scheduler = sched
		if got, want := goldenStream(t, cfg, kernels.Suite(), 0.3), goldenStreamDigests[sched]; got != want {
			t.Errorf("%v statistics stream digest = %s, want %s: a simulated number changed", sched, got, want)
		}
	}
}

// TestGoldenStatsStreamTitanX runs the memory-heavy kernels at scale 0.3 on
// TitanXConfig (24 clusters, 8 DRAM channels) under LRR.
func TestGoldenStatsStreamTitanX(t *testing.T) {
	var specs []kernels.Spec
	for _, name := range titanXStreamKernels {
		spec, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	if got := goldenStream(t, TitanXConfig(), specs, 0.3); got != titanXStreamDigest {
		t.Errorf("TitanX statistics stream digest = %s, want %s: a simulated number changed", got, titanXStreamDigest)
	}
}
