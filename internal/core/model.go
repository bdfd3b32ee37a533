// Package core implements SSMDVFS, the paper's contribution: a combined
// supervised model — a Decision-maker classifier that picks the minimum
// V/f operating point satisfying a performance-loss preset, and a
// Calibrator regressor that predicts the next epoch's instruction count —
// plus the runtime controller that closes the loop with self-calibration
// at every 10 µs DVFS epoch.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"ssmdvfs/internal/atomicfile"
	"ssmdvfs/internal/buildinfo"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/infer"
	"ssmdvfs/internal/nn"
	"ssmdvfs/internal/provenance"
)

// Model is the combined Decision-maker + Calibrator network. The paper
// fuses both heads into one network; here each head is an MLP whose
// shared preprocessing (feature selection and scaling) is identical, and
// FLOPs/compression are reported over the pair.
type Model struct {
	// FeatureIdx are the counter indices the model consumes (Table I's
	// five by default).
	FeatureIdx []int
	// Levels is the number of operating-point classes.
	Levels int

	// Decision maps [scaled features..., scaled preset] to level logits.
	Decision *nn.MLP
	// Calibrator maps [scaled features..., scaled preset, scaled level]
	// to the predicted next-epoch instruction count (scaled).
	Calibrator *nn.MLP

	// DecisionScaler / CalibScaler standardize each head's inputs.
	DecisionScaler *counters.Scaler
	CalibScaler    *counters.Scaler
	// TargetScale converts the Calibrator's output back to instructions.
	TargetScale float64
	// PresetSamples records the Decision head's training formulation
	// (see TrainOptions.PresetSamples), so evaluation matches it.
	PresetSamples int

	// Backend is the inference backend this model serves with ("float64"
	// or "int8"; empty means float64). It lives in memory only: the
	// serving engine sets it from serve.Options.Backend, and Save does not
	// write it.
	Backend infer.Kind

	// Lineage tracks where this model came from across online
	// recalibration: its generation number, parent generation, and how it
	// was produced. The zero value means an unversioned offline artifact,
	// and is omitted from saved files so pre-lineage artifacts round-trip
	// byte-identically.
	Lineage Lineage

	// bk caches the built backend pair (see backend.go). A plain pointer
	// rather than a sync type so Clone's shallow copy stays vet-clean;
	// access is guarded by the package-level backendMu.
	bk *modelBackends
}

// NumFeatures returns the number of counter features the model consumes.
func (m *Model) NumFeatures() int { return len(m.FeatureIdx) }

// Columns returns the mask (bit i: counters.Def(i)) of the counters the
// model reads out of a full feature row — FeatureIdx as a set.
func (m *Model) Columns() uint64 {
	var mask uint64
	for _, i := range m.FeatureIdx {
		mask |= 1 << uint(i)
	}
	return mask
}

// TrainingStats returns the names and training-set mean/σ of the model's
// selected features, read from the Decision scaler stored in the
// artifact — the reference distribution online drift monitoring compares
// live traffic against. The preset column the scaler also carries is
// excluded (it is an operator input, not a workload feature).
func (m *Model) TrainingStats() (names []string, mean, std []float64) {
	n := len(m.FeatureIdx)
	names = make([]string, n)
	for i, idx := range m.FeatureIdx {
		names[i] = counters.Def(idx).Name
	}
	return names, m.DecisionScaler.Mean[:n:n], m.DecisionScaler.Std[:n:n]
}

// ProvenanceHeader builds the decision-dump header attributing a flight
// recorder's contents to this binary and model. The simulator's dump
// (cmd/dvfstrace) and the daemon's /debug/decisions both start from it,
// so cmd/dvfsstat's -decisions view treats the two captures alike.
func (m *Model) ProvenanceHeader() provenance.Header {
	names, mean, std := m.TrainingStats()
	return provenance.Header{
		Build:       buildinfo.Info(),
		Features:    names,
		TrainMean:   mean,
		TrainStd:    std,
		Levels:      m.Levels,
		ModelParams: m.Params(),
	}
}

// FLOPs returns the dense inference cost of one combined decision +
// calibration step.
func (m *Model) FLOPs() int { return m.Decision.FLOPs() + m.Calibrator.FLOPs() }

// EffectiveFLOPs returns the sparse inference cost after pruning.
func (m *Model) EffectiveFLOPs() int {
	return m.Decision.EffectiveFLOPs() + m.Calibrator.EffectiveFLOPs()
}

// Params returns the combined parameter count.
func (m *Model) Params() int { return m.Decision.Params() + m.Calibrator.Params() }

// Clone deep-copies the model. The backend cache is deliberately not
// carried over: a clone is usually about to be mutated (pruned,
// fake-quantized), and stale backends would serve the pre-mutation
// weights.
func (m *Model) Clone() *Model {
	cp := *m
	cp.FeatureIdx = append([]int(nil), m.FeatureIdx...)
	cp.Decision = m.Decision.Clone()
	cp.Calibrator = m.Calibrator.Clone()
	cp.bk = nil
	return &cp
}

// Validate checks the model's structural and numerical sanity: head
// shapes consistent with the feature set and level count, scalers of the
// right length with finite statistics and positive spread, and every
// weight and bias finite. It is the one validator of the model format: Load ends
// in it, and NewController and the serving engine's swap call it for
// models built in memory. A corrupt or truncated artifact must keep the
// previous model serving, not poison decisions with NaNs.
func (m *Model) Validate() error {
	if m.Decision == nil || m.Calibrator == nil {
		return fmt.Errorf("core: model is missing a head")
	}
	if m.Levels <= 0 {
		return fmt.Errorf("core: model has %d levels", m.Levels)
	}
	if len(m.FeatureIdx) == 0 {
		return fmt.Errorf("core: model selects no features")
	}
	for _, i := range m.FeatureIdx {
		if i < 0 || i >= counters.Num {
			return fmt.Errorf("core: feature index %d out of range", i)
		}
	}
	n := len(m.FeatureIdx)
	if got := m.Decision.InputSize(); got != n+1 {
		return fmt.Errorf("core: decision head input %d, want %d", got, n+1)
	}
	if got := m.Decision.OutputSize(); got != m.Levels {
		return fmt.Errorf("core: decision head output %d, want %d levels", got, m.Levels)
	}
	if got := m.Calibrator.InputSize(); got != n+2 {
		return fmt.Errorf("core: calibrator head input %d, want %d", got, n+2)
	}
	if got := m.Calibrator.OutputSize(); got != 1 {
		return fmt.Errorf("core: calibrator head output %d, want 1", got)
	}
	if !(m.TargetScale > 0) || math.IsInf(m.TargetScale, 0) {
		return fmt.Errorf("core: target scale %g is not positive and finite", m.TargetScale)
	}
	for _, sc := range []struct {
		name string
		s    *counters.Scaler
		dim  int
	}{
		{"decision", m.DecisionScaler, n + 1},
		{"calibrator", m.CalibScaler, n + 2},
	} {
		if sc.s == nil {
			return fmt.Errorf("core: model is missing the %s scaler", sc.name)
		}
		if len(sc.s.Mean) != sc.dim || len(sc.s.Std) != sc.dim {
			return fmt.Errorf("core: %s scaler has %d/%d stats, want %d", sc.name, len(sc.s.Mean), len(sc.s.Std), sc.dim)
		}
		for i := range sc.s.Mean {
			if math.IsNaN(sc.s.Mean[i]) || math.IsInf(sc.s.Mean[i], 0) {
				return fmt.Errorf("core: %s scaler mean[%d] is non-finite", sc.name, i)
			}
			if !(sc.s.Std[i] > 0) || math.IsInf(sc.s.Std[i], 0) {
				return fmt.Errorf("core: %s scaler std[%d] = %g, want positive and finite", sc.name, i, sc.s.Std[i])
			}
		}
	}
	if err := m.Decision.CheckFinite(); err != nil {
		return fmt.Errorf("core: decision head: %w", err)
	}
	if err := m.Calibrator.CheckFinite(); err != nil {
		return fmt.Errorf("core: calibrator head: %w", err)
	}
	return nil
}

// serializedModel mirrors Model for JSON round-trips; the MLPs are
// embedded via their own serialization.
type serializedModel struct {
	FeatureIdx     []int            `json:"feature_idx"`
	Levels         int              `json:"levels"`
	Decision       json.RawMessage  `json:"decision"`
	Calibrator     json.RawMessage  `json:"calibrator"`
	DecisionScaler *counters.Scaler `json:"decision_scaler"`
	CalibScaler    *counters.Scaler `json:"calib_scaler"`
	TargetScale    float64          `json:"target_scale"`
	PresetSamples  int              `json:"preset_samples"`
	Lineage        *Lineage         `json:"lineage,omitempty"`
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	var dBuf, cBuf bytes.Buffer
	if err := m.Decision.Save(&dBuf); err != nil {
		return err
	}
	if err := m.Calibrator.Save(&cBuf); err != nil {
		return err
	}
	s := serializedModel{
		FeatureIdx:     m.FeatureIdx,
		Levels:         m.Levels,
		PresetSamples:  m.PresetSamples,
		Decision:       json.RawMessage(dBuf.Bytes()),
		Calibrator:     json.RawMessage(cBuf.Bytes()),
		DecisionScaler: m.DecisionScaler,
		CalibScaler:    m.CalibScaler,
		TargetScale:    m.TargetScale,
	}
	if m.Lineage != (Lineage{}) {
		lin := m.Lineage
		s.Lineage = &lin
	}
	return json.NewEncoder(w).Encode(s)
}

// Load reads a model saved with Save and returns Validate's verdict on
// it, so every model that enters from a file — the daemon's start and
// hot reload, the experiments cache — passes the same gate.
func Load(r io.Reader) (*Model, error) {
	var s serializedModel
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	m := &Model{FeatureIdx: s.FeatureIdx, Levels: s.Levels, TargetScale: s.TargetScale,
		DecisionScaler: s.DecisionScaler, CalibScaler: s.CalibScaler,
		PresetSamples: s.PresetSamples}
	if s.Lineage != nil {
		m.Lineage = *s.Lineage
	}
	var err error
	if m.Decision, err = nn.Load(bytes.NewReader(s.Decision)); err != nil {
		return nil, fmt.Errorf("core: decision head: %w", err)
	}
	if m.Calibrator, err = nn.Load(bytes.NewReader(s.Calibrator)); err != nil {
		return nil, fmt.Errorf("core: calibrator head: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveFile writes the model to path atomically (temp file + rename), so
// a hot-reloading reader can never observe a torn model file.
func (m *Model) SaveFile(path string) error {
	return atomicfile.Write(path, m.Save)
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) {
	return atomicfile.ReadWith(path, Load)
}
