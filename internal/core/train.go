package core

import (
	"fmt"
	"math/rand"
	"sync"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/datagen"
	"ssmdvfs/internal/nn"
)

// Architecture specifies both heads' hidden layers. The paper's initial
// network dedicates five FC layers (four hidden + output) to the
// Decision-maker and four (three hidden + output) to the Calibrator, all
// 20 neurons wide; the compressed network is 3+2 layers, 12 wide.
type Architecture struct {
	DecisionHidden   []int
	CalibratorHidden []int
}

// PaperInitial returns the pre-compression architecture of Section III-D.
func PaperInitial() Architecture {
	return Architecture{
		DecisionHidden:   []int{20, 20, 20, 20},
		CalibratorHidden: []int{20, 20, 20},
	}
}

// PaperCompressed returns the layer-wise compressed architecture of
// Section IV-B (before pruning): 3 decision layers and 2 calibrator
// layers, 12 hidden neurons each.
func PaperCompressed() Architecture {
	return Architecture{
		DecisionHidden:   []int{12, 12},
		CalibratorHidden: []int{12},
	}
}

// valFraction of the dataset is held out for the reported metrics.
const valFraction = 0.2

// TrainOptions configures Train. Train always holds out a fifth of the
// dataset (valFraction) for the reported metrics.
type TrainOptions struct {
	// FeatureIdx selects the counters to use (defaults to Table I's five).
	FeatureIdx []int
	// Arch selects the head shapes (defaults to PaperInitial).
	Arch Architecture
	// Epochs / BatchSize / LearningRate drive both heads' training.
	Epochs       int
	BatchSize    int
	LearningRate float64
	Seed         int64
	// PresetSamples > 0 trains the Decision head on preset-sampled rows
	// (the min-level-satisfying-preset rule, PresetSamples rows per
	// feature-window group); 0 uses the paper's actual-loss rows.
	PresetSamples int
}

// DefaultTrainOptions returns a configuration that trains both heads to
// the paper's accuracy regime in a few seconds.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		FeatureIdx:    counters.SelectedFive(),
		Arch:          PaperInitial(),
		Epochs:        60,
		BatchSize:     32,
		LearningRate:  0.003,
		Seed:          42,
		PresetSamples: 8,
	}
}

// Report carries a model's metrics, the quantities in the paper's Table
// II. Train reports Accuracy and MAPE on its validation split; Evaluate
// reports them on the whole dataset it is given.
type Report struct {
	// Accuracy is the Decision-maker's classification accuracy.
	Accuracy float64
	// MAPE is the Calibrator's mean absolute percentage error (%).
	MAPE float64
	// FLOPs is the combined dense inference cost.
	FLOPs int
}

// Train fits the combined model on the dataset and returns it with its
// validation report.
func Train(ds *datagen.Dataset, opts TrainOptions) (*Model, Report, error) {
	var rep Report
	if len(ds.Samples) == 0 {
		return nil, rep, fmt.Errorf("core: empty dataset")
	}
	if opts.FeatureIdx == nil {
		opts.FeatureIdx = counters.SelectedFive()
	}
	if opts.Arch.DecisionHidden == nil {
		opts.Arch = PaperInitial()
	}
	if opts.Epochs <= 0 || opts.BatchSize <= 0 || opts.LearningRate <= 0 {
		return nil, rep, fmt.Errorf("core: Epochs, BatchSize and LearningRate must be positive")
	}

	train, val := ds.Split(1-valFraction, opts.Seed)
	if train.Samples == nil || val.Samples == nil {
		return nil, rep, fmt.Errorf("core: dataset too small to split (%d samples)", len(ds.Samples))
	}

	m := &Model{
		FeatureIdx:    append([]int(nil), opts.FeatureIdx...),
		Levels:        ds.Levels,
		PresetSamples: opts.PresetSamples,
	}

	// The two heads are independent: disjoint rows, seeds and optimizers,
	// and each writes only its own fields of m and rep. The Calibrator
	// trains on a goroutine of its own while the Decision-maker trains on
	// this one, and both are what they are when trained one after the other.
	var cErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cErr = trainCalibrator(m, &rep, train, val, opts)
	}()
	dErr := trainDecision(m, &rep, ds, train, val, opts)
	wg.Wait()
	if dErr != nil {
		return nil, rep, dErr
	}
	if cErr != nil {
		return nil, rep, cErr
	}
	rep.FLOPs = m.FLOPs()
	return m, rep, nil
}

// trainDecision fits the Decision-maker head of m and sets its validation
// accuracy in rep.
func trainDecision(m *Model, rep *Report, ds, train, val *datagen.Dataset, opts TrainOptions) error {
	// Preset-sampled rows need each feature window's complete per-level
	// loss vector, so they are generated from the full dataset and split at
	// row granularity; the paper-faithful rows split at sample granularity.
	var dTrainRows, dValRows [][]float64
	var dTrainLabels, dValLabels []int
	if opts.PresetSamples > 0 {
		rows, labels := ds.DecisionRowsPresetSampled(m.FeatureIdx, opts.PresetSamples, opts.Seed+11)
		if len(rows) == 0 {
			return fmt.Errorf("core: no complete feature-window groups for preset sampling")
		}
		perm := rand.New(rand.NewSource(opts.Seed + 12)).Perm(len(rows))
		nTrain := int(float64(len(rows)) * (1 - valFraction))
		for i, idx := range perm {
			if i < nTrain {
				dTrainRows = append(dTrainRows, rows[idx])
				dTrainLabels = append(dTrainLabels, labels[idx])
			} else {
				dValRows = append(dValRows, rows[idx])
				dValLabels = append(dValLabels, labels[idx])
			}
		}
	} else {
		dTrainRows, dTrainLabels = train.DecisionRows(m.FeatureIdx)
		dValRows, dValLabels = val.DecisionRows(m.FeatureIdx)
	}
	if len(dTrainRows) == 0 || len(dValRows) == 0 {
		return fmt.Errorf("core: dataset too small for a train/val split")
	}
	var err error
	if m.DecisionScaler, err = counters.FitScaler(dTrainRows); err != nil {
		return err
	}
	dSizes := append([]int{len(m.FeatureIdx) + 1}, opts.Arch.DecisionHidden...)
	dSizes = append(dSizes, ds.Levels)
	if m.Decision, err = nn.NewMLP(dSizes, rand.New(rand.NewSource(opts.Seed))); err != nil {
		return err
	}
	dTrainSet := nn.ClassificationSet{X: m.DecisionScaler.TransformAll(dTrainRows), Labels: dTrainLabels}
	dValSet := nn.ClassificationSet{X: m.DecisionScaler.TransformAll(dValRows), Labels: dValLabels}
	if _, err = nn.TrainClassifier(m.Decision, dTrainSet, nn.TrainConfig{
		Epochs: opts.Epochs, BatchSize: opts.BatchSize,
		Optimizer: nn.NewAdam(opts.LearningRate), Seed: opts.Seed + 1,
	}); err != nil {
		return err
	}
	rep.Accuracy = nn.EvalClassifier(m.Decision, dValSet)
	return nil
}

// trainCalibrator fits the Calibrator head of m and sets its validation
// MAPE in rep.
func trainCalibrator(m *Model, rep *Report, train, val *datagen.Dataset, opts TrainOptions) error {
	cTrainRows, cTrainTargets := train.CalibratorRows(m.FeatureIdx)
	cValRows, cValTargets := val.CalibratorRows(m.FeatureIdx)
	var err error
	if m.CalibScaler, err = counters.FitScaler(cTrainRows); err != nil {
		return err
	}
	m.TargetScale = meanAbs(cTrainTargets)
	if m.TargetScale <= 0 {
		m.TargetScale = 1
	}
	cSizes := append([]int{len(m.FeatureIdx) + 2}, opts.Arch.CalibratorHidden...)
	cSizes = append(cSizes, 1)
	if m.Calibrator, err = nn.NewMLP(cSizes, rand.New(rand.NewSource(opts.Seed+2))); err != nil {
		return err
	}
	cTrainSet := nn.RegressionSet{X: m.CalibScaler.TransformAll(cTrainRows), Y: scaleAll(cTrainTargets, 1/m.TargetScale)}
	if _, err = nn.TrainRegressor(m.Calibrator, cTrainSet, nn.TrainConfig{
		Epochs: opts.Epochs, BatchSize: opts.BatchSize,
		Optimizer: nn.NewAdam(opts.LearningRate), Seed: opts.Seed + 3,
	}); err != nil {
		return err
	}
	cValSet := nn.RegressionSet{X: m.CalibScaler.TransformAll(cValRows), Y: scaleAll(cValTargets, 1/m.TargetScale)}
	rep.MAPE = nn.EvalRegressor(m.Calibrator, cValSet)
	return nil
}

// decisionRows picks the Decision head's row formulation.
func decisionRows(ds *datagen.Dataset, featureIdx []int, presetSamples int, seed int64) ([][]float64, []int) {
	if presetSamples > 0 {
		return ds.DecisionRowsPresetSampled(featureIdx, presetSamples, seed)
	}
	return ds.DecisionRows(featureIdx)
}

// DecisionRowsFor assembles Decision-head rows and labels from ds using
// the same formulation m was trained with — required by any further
// training of the head (e.g. fine-tuning after pruning) so its task does
// not silently change.
func (m *Model) DecisionRowsFor(ds *datagen.Dataset, seed int64) ([][]float64, []int) {
	return decisionRows(ds, m.FeatureIdx, m.PresetSamples, seed)
}

// Evaluate recomputes a model's accuracy and MAPE on a dataset (e.g.
// after compression or pruning), using the same Decision-row formulation
// the model was trained with.
func Evaluate(m *Model, ds *datagen.Dataset) Report {
	rep := Report{FLOPs: m.FLOPs()}
	dRows, dLabels := decisionRows(ds, m.FeatureIdx, m.PresetSamples, 12345)
	rep.Accuracy = nn.EvalClassifier(m.Decision, nn.ClassificationSet{
		X: m.DecisionScaler.TransformAll(dRows), Labels: dLabels,
	})
	cRows, cTargets := ds.CalibratorRows(m.FeatureIdx)
	rep.MAPE = nn.EvalRegressor(m.Calibrator, nn.RegressionSet{
		X: m.CalibScaler.TransformAll(cRows), Y: scaleAll(cTargets, 1/m.TargetScale),
	})
	return rep
}

func meanAbs(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		if x < 0 {
			s -= x
		} else {
			s += x
		}
	}
	return s / float64(len(v))
}

func scaleAll(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}
