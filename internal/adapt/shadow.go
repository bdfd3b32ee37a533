package adapt

import (
	"math"

	"ssmdvfs/internal/core"
)

// ShadowResult is a point-in-time view of shadow scoring: rolling MAPE
// of the incumbent's and the candidate's instruction predictions against
// realized traffic, how many realized samples back them, and how often
// the candidate's decision head agreed with the served level on those
// samples.
type ShadowResult struct {
	Samples   int     `json:"samples"`
	Incumbent float64 `json:"incumbent_mape"`
	Candidate float64 `json:"candidate_mape"`
	AgreeRate float64 `json:"agree_rate"`
}

// shadowScore scores a candidate model on live traffic without ever
// letting it serve. It grades the pairs the training stream completes:
// for each pending decision whose key's next epoch realized an
// instruction count, the incumbent's prediction is the one that served,
// and the candidate's is computed now for the same features and the same
// served level, so the two MAPEs are directly comparable on identical
// traffic. It runs inside the controller's step, under its lock.
type shadowScore struct {
	inf       *core.Inference
	samples   int
	sumAbsInc float64
	sumAbsCan float64
	agree     int
}

func newShadowScore(cand *core.Model) *shadowScore {
	return &shadowScore{inf: core.NewInference(cand)}
}

// grade folds one realized pair; a pair where either prediction is not
// positive carries no relative error and is skipped.
func (s *shadowScore) grade(p *pendingPred, actual float64) {
	level := int(p.level)
	predCand := s.inf.PredictInstructions(p.raw[:], p.preset, level)
	if p.pred <= 0 || predCand <= 0 {
		return
	}
	s.samples++
	s.sumAbsInc += math.Abs((p.pred - actual) / p.pred)
	s.sumAbsCan += math.Abs((predCand - actual) / predCand)
	if s.inf.DecideLevel(p.raw[:], p.preset) == level {
		s.agree++
	}
}

// Result returns the current scoring state.
func (s *shadowScore) Result() ShadowResult {
	r := ShadowResult{Samples: s.samples}
	if s.samples > 0 {
		n := float64(s.samples)
		r.Incumbent = s.sumAbsInc / n
		r.Candidate = s.sumAbsCan / n
		r.AgreeRate = float64(s.agree) / n
	}
	return r
}
