// Package oracle computes DVFS upper bounds no online mechanism can see:
// a clairvoyant per-epoch policy that, at every epoch boundary, clones
// the simulator and actually measures each operating point's effect on
// the remaining execution before committing, and a static-best policy
// that runs the whole program at every fixed level (StaticRuns) and picks
// one under a loss budget (StaticPick). Both are evaluation
// tools — they exploit the simulator's Clone support and are impossible
// on real hardware — used to report how much headroom SSMDVFS leaves:
// experiments.RunFig4 runs them as the mechanisms "static-best" and
// "oracle-greedy", beside the online mechanisms and under the same
// baseline, presets and loss test.
package oracle

import (
	"fmt"

	"ssmdvfs/internal/gpusim"
)

// Objective scores a finished run; lower is better.
type Objective func(res gpusim.Result) float64

// EDPObjective minimizes the energy-delay product.
func EDPObjective(res gpusim.Result) float64 { return res.EDP() }

// StaticRuns runs the kernel to completion once per fixed operating level
// and returns the results by level. The default level is not simulated:
// forcing it at t = 0 changes nothing, so its run is base, the
// default-level run the caller already has. The runs do not depend on a
// loss budget; StaticPick chooses among them.
func StaticRuns(cfg gpusim.Config, kernel gpusim.Kernel, base gpusim.Result, maxPs int64) ([]gpusim.Result, error) {
	results := make([]gpusim.Result, cfg.OPs.Len())
	for lvl := range results {
		if lvl == cfg.OPs.Default() {
			results[lvl] = base
			continue
		}
		sim, err := gpusim.New(cfg, kernel)
		if err != nil {
			return nil, err
		}
		sim.ForceLevel(lvl)
		results[lvl] = sim.Run(maxPs)
		if !results[lvl].Completed {
			return nil, fmt.Errorf("oracle: level %d did not complete within %d ps", lvl, maxPs)
		}
	}
	return results, nil
}

// StaticPick returns the level of StaticRuns' results with the best
// objective (nil = EDP) among those whose performance loss against the
// default level stays within maxLoss.
func StaticPick(results []gpusim.Result, defaultLevel int, maxLoss float64, obj Objective) int {
	if obj == nil {
		obj = EDPObjective
	}
	baseT := results[defaultLevel].ExecTimePs
	best := defaultLevel
	bestScore := obj(results[best])
	for lvl, res := range results {
		loss := float64(res.ExecTimePs-baseT) / float64(baseT)
		if loss > maxLoss {
			continue
		}
		if s := obj(res); s < bestScore {
			best, bestScore = lvl, s
		}
	}
	return best
}

// GreedyOptions configures the clairvoyant per-epoch search.
type GreedyOptions struct {
	// Preset bounds the *window-normalized* loss each epoch's choice may
	// cost relative to choosing the default level for that epoch.
	Preset float64
	// Objective scores probes (default EDP of the probe run).
	Objective Objective
	// MaxRunPs bounds every simulation.
	MaxRunPs int64
}

// GreedyResult is the clairvoyant run's outcome.
type GreedyResult struct {
	Result gpusim.Result
	// Levels records the level chosen at each epoch boundary.
	Levels []int
	// Probes is the number of cloned probe simulations executed.
	Probes int
}

// Greedy runs the clairvoyant per-epoch policy: before each epoch, clone
// the simulator once per chip-wide level, run the probe forward, and
// commit to the level with the best objective among those whose
// window-normalized loss stays within the preset. Chip-wide (all
// clusters share the level) keeps the search space linear in levels;
// every probe runs the rest of the program, so the cost is quadratic in
// the run's epoch count.
func Greedy(cfg gpusim.Config, kernel gpusim.Kernel, opts GreedyOptions) (*GreedyResult, error) {
	if opts.MaxRunPs <= 0 {
		opts.MaxRunPs = gpusim.DefaultMaxRunPs
	}
	if opts.Objective == nil {
		opts.Objective = EDPObjective
	}
	if opts.Preset < 0 {
		return nil, fmt.Errorf("oracle: negative preset")
	}
	sim, err := gpusim.New(cfg, kernel)
	if err != nil {
		return nil, err
	}
	defaultLevel := cfg.OPs.Default()
	out := &GreedyResult{}

	for epoch := int64(0); ; epoch++ {
		if sim.Done() {
			break
		}
		boundary := epoch * cfg.EpochPs
		next := boundary + cfg.EpochPs
		if boundary > opts.MaxRunPs {
			return nil, fmt.Errorf("oracle: exceeded MaxRunPs while deciding")
		}

		// Probe every level for the upcoming epoch.
		bestLevel := defaultLevel
		bestScore := 0.0
		var refTime int64 = -1
		haveBest := false
		for lvl := cfg.OPs.Len() - 1; lvl >= 0; lvl-- {
			probe := sim.Clone()
			probe.ForceLevel(lvl)
			probe.RunUntil(next + 1)
			probe.ForceLevel(defaultLevel)
			// Always to completion: a probe cut short reports the cut-off
			// as its ExecTimePs, the same for every level, so the loss
			// test below would pass vacuously and the lowest-energy level
			// would win every epoch.
			res := probe.Run(opts.MaxRunPs)
			if !res.Completed {
				return nil, fmt.Errorf("oracle: probe did not complete")
			}
			out.Probes++
			if lvl == defaultLevel {
				refTime = res.ExecTimePs
			}
			// Window-normalized loss of this choice vs the default probe.
			// The default level is probed first (descending loop), so
			// refTime is always available here.
			loss := float64(res.ExecTimePs-refTime) / float64(cfg.EpochPs)
			if loss > opts.Preset {
				continue
			}
			score := opts.Objective(res)
			if !haveBest || score < bestScore {
				bestLevel, bestScore, haveBest = lvl, score, true
			}
		}

		// Commit: advance the real simulation one epoch at the choice.
		sim.ForceLevel(bestLevel)
		sim.RunUntil(next + 1)
		out.Levels = append(out.Levels, bestLevel)
	}
	sim.ForceLevel(defaultLevel)
	out.Result = sim.Run(opts.MaxRunPs)
	if !out.Result.Completed {
		return nil, fmt.Errorf("oracle: committed run did not complete")
	}
	return out, nil
}
