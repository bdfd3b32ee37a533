package core

import (
	"fmt"

	"ssmdvfs/internal/nn"
)

// Lineage sources.
const (
	// SourceOffline marks a model produced by the offline training
	// pipeline (also what an unversioned artifact implies).
	SourceOffline = "offline"
	// SourceRefit marks a model produced by an online Calibrator re-fit
	// from flight-recorder traffic.
	SourceRefit = "refit"
)

// Lineage is a model's provenance across online adaptation: which
// generation it is, which generation it was refit from, how it was
// produced, and how many online re-fits are in its ancestry. Generation
// numbers are assigned by whoever produces models (the adaptation
// controller keeps them monotonically increasing per serving process);
// generation 0 is the unversioned offline artifact.
type Lineage struct {
	Generation int    `json:"generation,omitempty"`
	Parent     int    `json:"parent,omitempty"`
	Source     string `json:"source,omitempty"`
	Refits     int    `json:"refits,omitempty"`
}

func (l Lineage) String() string {
	src := l.Source
	if src == "" {
		src = SourceOffline
	}
	return fmt.Sprintf("gen %d (%s, parent %d, %d refits)", l.Generation, src, l.Parent, l.Refits)
}

// RefitOptions tunes an online Calibrator re-fit; zero values take the
// defaults, which are sized for a few hundred to a few thousand stream
// rows.
type RefitOptions struct {
	Epochs       int     // default 40
	BatchSize    int     // default 32 (clamped to the row count)
	LearningRate float64 // default 0.005
	Seed         int64
	// Generation is the lineage generation the candidate gets; 0 assigns
	// parent generation + 1. Callers that survive rollbacks should assign
	// monotonically themselves so a re-refit never reuses the generation
	// of a rejected candidate.
	Generation int
}

func (o RefitOptions) withDefaults() RefitOptions {
	if o.Epochs <= 0 {
		o.Epochs = 40
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 32
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.005
	}
	return o
}

// RefitReport summarizes one re-fit: stream MAPE (%) of the parent and
// the candidate on the training rows, and the final training loss. The
// MAPEs are Table II's |pred − actual|/actual in percent, not the live
// (pred − actual)/pred fraction that prov_pred_mape and adapt's
// drift_mape carry (DESIGN.md, "Two relative errors").
type RefitReport struct {
	Rows       int
	MAPEBefore float64
	MAPEAfter  float64
	Loss       float64
}

// RefitCalibrator incrementally re-fits the Calibrator head on a stream
// of observed (row, realized-instruction-count) pairs — the online
// learning step of the paper's self-calibration loop. Each row is the
// Calibrator's raw input [selected features..., preset, level] exactly
// as the serving path assembles it; targets are the next epoch's
// realized instruction counts in instructions (unscaled).
//
// The parent is never mutated: the candidate is a deep clone whose
// Calibrator is warm-started from the parent's weights and trained
// in place, so a handful of epochs over a few hundred stream rows is
// enough to track drift instead of relearning from scratch. The
// Decision head, scalers, and TargetScale are inherited unchanged (the
// input distribution reference stays the training set's, which is what
// drift is measured against). The candidate's lineage records the
// parent generation and bumps the refit count; the candidate is
// validated before being returned, so a re-fit that diverged (non-
// finite weights) comes back as an error, never as a servable model.
func RefitCalibrator(parent *Model, rows [][]float64, targets []float64, opts RefitOptions) (*Model, RefitReport, error) {
	rep := RefitReport{Rows: len(rows)}
	if parent == nil {
		return nil, rep, fmt.Errorf("core: refit needs a parent model")
	}
	if len(rows) == 0 || len(rows) != len(targets) {
		return nil, rep, fmt.Errorf("core: refit got %d rows and %d targets", len(rows), len(targets))
	}
	wantDim := len(parent.FeatureIdx) + 2
	for i, r := range rows {
		if len(r) != wantDim {
			return nil, rep, fmt.Errorf("core: refit row %d has %d values, want %d", i, len(r), wantDim)
		}
	}
	opts = opts.withDefaults()
	if opts.BatchSize > len(rows) {
		opts.BatchSize = len(rows)
	}

	set := nn.RegressionSet{
		X: parent.CalibScaler.TransformAll(rows),
		Y: scaleAll(targets, 1/parent.TargetScale),
	}
	rep.MAPEBefore = nn.EvalRegressor(parent.Calibrator, set)

	cand := parent.Clone()
	loss, err := nn.TrainRegressor(cand.Calibrator, set, nn.TrainConfig{
		Epochs: opts.Epochs, BatchSize: opts.BatchSize,
		Optimizer: nn.NewAdam(opts.LearningRate), Seed: opts.Seed,
	})
	if err != nil {
		return nil, rep, fmt.Errorf("core: refit training: %w", err)
	}
	rep.Loss = loss
	rep.MAPEAfter = nn.EvalRegressor(cand.Calibrator, set)

	gen := opts.Generation
	if gen <= 0 {
		gen = parent.Lineage.Generation + 1
	}
	cand.Lineage = Lineage{
		Generation: gen,
		Parent:     parent.Lineage.Generation,
		Source:     SourceRefit,
		Refits:     parent.Lineage.Refits + 1,
	}
	if err := cand.Validate(); err != nil {
		return nil, rep, fmt.Errorf("core: refit produced an invalid model: %w", err)
	}
	return cand, rep, nil
}
