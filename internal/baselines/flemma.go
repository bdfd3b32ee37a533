package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/gpusim"
)

// FLEMMA is the adapted hierarchical reinforcement-learning baseline: a
// linear softmax actor and linear critic over a small counter-derived
// state, updated online with advantage actor-critic. The hierarchy of
// the original — fine-grained per-epoch decisions from the (cheap) linear
// policy, coarse-grained model updates every UpdatePeriod epochs — is
// preserved; the paper's "faster F-LEMMA" adaptation shortens the update
// period so it can track fine-grained DVFS.
//
// The adapted reward follows the paper: a linear combination of
// normalized power savings and an instruction-count term whose baseline
// is reduced by the performance-loss preset so the agent may trade that
// much throughput away.
type FLEMMA struct {
	Preset float64
	Table  *clockdomain.Table

	// UpdatePeriod is how many epochs of experience accumulate between
	// actor-critic updates (the coarse-grained level of the hierarchy).
	UpdatePeriod int
	// Epsilon is the exploration rate, decayed multiplicatively by
	// EpsilonDecay at each update.
	Epsilon      float64
	EpsilonDecay float64
	// LR is the actor/critic learning rate; Lambda weighs the performance
	// penalty against power savings in the reward.
	LR     float64
	Lambda float64

	rng *rand.Rand

	// Linear models: actor logits = actorW · s + actorB per action;
	// critic value = criticW · s + criticB.
	actorW  [][]float64 // [action][stateDim]
	actorB  []float64
	criticW []float64
	criticB float64

	// Per-cluster bookkeeping of the previous decision.
	prev []flemmaPrev
	// Running normalizers (shared across clusters, as in the original's
	// global power manager).
	maxInstr float64
	maxPower float64

	// Experience buffer for the coarse update.
	buf        []flemmaExp
	epochsSeen int
}

type flemmaPrev struct {
	state  []float64
	action int
	valid  bool
}

type flemmaExp struct {
	state  []float64
	action int
	reward float64
}

const flemmaStateDim = 6

// NewFLEMMA builds the RL baseline.
func NewFLEMMA(table *clockdomain.Table, preset float64, clusters int, seed int64) (*FLEMMA, error) {
	if table == nil {
		return nil, fmt.Errorf("baselines: nil operating-point table")
	}
	if preset < 0 {
		return nil, fmt.Errorf("baselines: preset must be non-negative, got %g", preset)
	}
	if clusters <= 0 {
		return nil, fmt.Errorf("baselines: clusters must be positive, got %d", clusters)
	}
	f := &FLEMMA{
		Preset:       preset,
		Table:        table,
		UpdatePeriod: 4,
		Epsilon:      0.5,
		EpsilonDecay: 0.9,
		LR:           0.05,
		Lambda:       4.0,
		rng:          rand.New(rand.NewSource(seed)),
		actorB:       make([]float64, table.Len()),
		criticW:      make([]float64, flemmaStateDim),
		prev:         make([]flemmaPrev, clusters),
		maxInstr:     1,
		maxPower:     1,
	}
	f.actorW = make([][]float64, table.Len())
	for a := range f.actorW {
		f.actorW[a] = make([]float64, flemmaStateDim)
		for i := range f.actorW[a] {
			f.actorW[a][i] = (f.rng.Float64() - 0.5) * 0.1
		}
	}
	// Bias the initial policy toward the default (fastest) level so the
	// cold-start policy is safe rather than random-slow.
	f.actorB[table.Default()] = 1.0
	return f, nil
}

// Name implements gpusim.Controller.
func (f *FLEMMA) Name() string { return "flemma" }

// state builds the normalized observation vector.
func (f *FLEMMA) state(stats gpusim.EpochStats) []float64 {
	instr := float64(stats.Instructions)
	if instr > f.maxInstr {
		f.maxInstr = instr
	}
	p := stats.PowerW()
	if p > f.maxPower {
		f.maxPower = p
	}
	memFrac := sensitivity(stats)
	return []float64{
		instr / f.maxInstr,
		p / f.maxPower,
		memFrac,
		stats.IPC() / 2.0,
		float64(stats.Level) / float64(f.Table.Len()-1),
		1.0, // bias-like constant input
	}
}

// reward implements the adapted objective: reward power savings relative
// to the fastest point, and penalize instruction throughput only below
// the preset-reduced baseline.
func (f *FLEMMA) reward(stats gpusim.EpochStats) float64 {
	powerNorm := stats.PowerW() / f.maxPower
	instrNorm := float64(stats.Instructions) / f.maxInstr
	target := 1 - f.Preset // baseline reduced to allow the preset loss
	perfPenalty := 0.0
	if instrNorm < target {
		perfPenalty = (target - instrNorm) / target
	}
	return (1 - powerNorm) - f.Lambda*perfPenalty
}

func (f *FLEMMA) logits(state []float64) []float64 {
	out := make([]float64, len(f.actorW))
	for a, w := range f.actorW {
		sum := f.actorB[a]
		for i, s := range state {
			sum += w[i] * s
		}
		out[a] = sum
	}
	return out
}

func softmaxInPlace(v []float64) {
	maxV := math.Inf(-1)
	for _, x := range v {
		if x > maxV {
			maxV = x
		}
	}
	var sum float64
	for i, x := range v {
		v[i] = math.Exp(x - maxV)
		sum += v[i]
	}
	for i := range v {
		v[i] /= sum
	}
}

func (f *FLEMMA) value(state []float64) float64 {
	v := f.criticB
	for i, s := range state {
		v += f.criticW[i] * s
	}
	return v
}

// Decide implements gpusim.Controller: credit the previous action with
// the epoch's reward, maybe run a coarse update, then act.
func (f *FLEMMA) Decide(stats gpusim.EpochStats) int {
	c := stats.Cluster
	st := f.state(stats)

	if f.prev[c].valid {
		f.buf = append(f.buf, flemmaExp{
			state:  f.prev[c].state,
			action: f.prev[c].action,
			reward: f.reward(stats),
		})
	}

	f.epochsSeen++
	if f.epochsSeen%(f.UpdatePeriod*len(f.prev)) == 0 && len(f.buf) > 0 {
		f.update()
	}

	var action int
	if f.rng.Float64() < f.Epsilon {
		action = f.rng.Intn(f.Table.Len())
	} else {
		probs := f.logits(st)
		softmaxInPlace(probs)
		action = argmaxF(probs)
	}
	f.prev[c] = flemmaPrev{state: st, action: action, valid: true}
	return action
}

func argmaxF(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// update performs one advantage actor-critic step over the buffered
// experience (the coarse-grained half of the hierarchy).
func (f *FLEMMA) update() {
	for _, e := range f.buf {
		v := f.value(e.state)
		adv := e.reward - v

		// Critic: move value toward reward.
		for i, s := range e.state {
			f.criticW[i] += f.LR * adv * s
		}
		f.criticB += f.LR * adv

		// Actor: policy-gradient step on the softmax policy.
		probs := f.logits(e.state)
		softmaxInPlace(probs)
		for a := range f.actorW {
			indicator := 0.0
			if a == e.action {
				indicator = 1.0
			}
			g := f.LR * adv * (indicator - probs[a])
			for i, s := range e.state {
				f.actorW[a][i] += g * s
			}
			f.actorB[a] += g
		}
	}
	f.buf = f.buf[:0]
	f.Epsilon *= f.EpsilonDecay
}

var _ gpusim.Controller = (*FLEMMA)(nil)
