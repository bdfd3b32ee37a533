package compress

import (
	"fmt"
	"sync"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/datagen"
	"ssmdvfs/internal/nn"
)

// Point is one (FLOPs, accuracy, MAPE) sample on a compression curve.
type Point struct {
	// Label identifies the configuration ("5+4x20", "x1=0.6 x2=0.9", ...).
	Label string
	// FLOPs is the combined model inference cost (effective/sparse FLOPs
	// for pruning points).
	FLOPs int
	// Accuracy is Decision-maker accuracy; MAPE is Calibrator error (%).
	Accuracy float64
	MAPE     float64
}

// LayerwisePoint trains the combined model at one architecture and
// returns its curve point — one independent shard of the layer-wise
// sweep.
func LayerwisePoint(ds *datagen.Dataset, arch core.Architecture, opts core.TrainOptions) (Point, error) {
	opts.Arch = arch
	m, rep, err := core.Train(ds, opts)
	if err != nil {
		return Point{}, fmt.Errorf("compress: training %v: %w", arch, err)
	}
	return Point{
		Label:    archLabel(arch),
		FLOPs:    m.FLOPs(),
		Accuracy: rep.Accuracy,
		MAPE:     rep.MAPE,
	}, nil
}

func archLabel(a core.Architecture) string {
	width := 0
	if len(a.DecisionHidden) > 0 {
		width = a.DecisionHidden[0]
	}
	return fmt.Sprintf("%d+%dx%d", len(a.DecisionHidden)+1, len(a.CalibratorHidden)+1, width)
}

// StandardGrid returns the paper-style layer-wise grid: decision depths
// 5..2 (hidden layers 4..1), calibrator depths 4..2, widths 20..4.
func StandardGrid() []core.Architecture {
	widths := []int{20, 16, 12, 8, 6, 4}
	var grid []core.Architecture
	for _, w := range widths {
		for dh := 4; dh >= 1; dh-- {
			ch := dh - 1
			if ch < 1 {
				ch = 1
			}
			grid = append(grid, core.Architecture{
				DecisionHidden:   repeat(w, dh),
				CalibratorHidden: repeat(w, ch),
			})
		}
	}
	return grid
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// PruneOptions configures PruneModel.
type PruneOptions struct {
	// X1 is the fine-grained magnitude pruning fraction; X2 the
	// neuron-level zero-fraction threshold. The paper selects (0.6, 0.9).
	X1, X2 float64
	// FineTuneEpochs retrains the pruned heads (masks enforced) to recover
	// accuracy; 0 skips fine-tuning.
	FineTuneEpochs int
	BatchSize      int
	LearningRate   float64
	Seed           int64
}

// DefaultPruneOptions returns the paper's selected pruning point with a
// short fine-tune.
func DefaultPruneOptions() PruneOptions {
	return PruneOptions{X1: 0.6, X2: 0.9, FineTuneEpochs: 20, BatchSize: 32, LearningRate: 0.001, Seed: 7}
}

// PruneModel applies the paper's two-stage pruning to both heads of the
// combined model, fine-tuning after each stage (masks in force) so the
// surviving weights absorb what the pruned ones carried — without the
// intermediate fine-tune, neuron-level pruning removes units whose
// weights merely *looked* dead right after magnitude pruning, and the
// Calibrator's regression quality collapses. It returns the pruned model
// and its evaluation on ds.
func PruneModel(m *core.Model, ds *datagen.Dataset, opts PruneOptions) (*core.Model, core.Report, error) {
	var rep core.Report
	pruned := m.Clone()

	// Stage 1: fine-grained magnitude pruning of the smallest x1 weights.
	if err := MagnitudePrune(pruned.Decision, opts.X1); err != nil {
		return nil, rep, err
	}
	if err := MagnitudePrune(pruned.Calibrator, opts.X1); err != nil {
		return nil, rep, err
	}
	if opts.FineTuneEpochs > 0 {
		if err := fineTune(pruned, ds, opts); err != nil {
			return nil, rep, err
		}
	}

	// Stage 2: neuron-level pruning of units that stayed ≥ x2 zero.
	var err error
	if pruned.Decision, err = NeuronPrune(pruned.Decision, opts.X2); err != nil {
		return nil, rep, err
	}
	if pruned.Calibrator, err = NeuronPrune(pruned.Calibrator, opts.X2); err != nil {
		return nil, rep, err
	}
	if opts.FineTuneEpochs > 0 {
		if err := fineTune(pruned, ds, opts); err != nil {
			return nil, rep, err
		}
	}
	rep = core.Evaluate(pruned, ds)
	rep.FLOPs = pruned.EffectiveFLOPs()
	return pruned, rep, nil
}

// fineTune retrains both pruned heads with masks in force, using the
// model's existing scalers. The heads share no rows, seeds or optimizer,
// so the Calibrator trains on a goroutine of its own while the
// Decision-maker trains on this one; the Decision-maker's error is
// returned first.
func fineTune(m *core.Model, ds *datagen.Dataset, opts PruneOptions) error {
	var cErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cRows, cTargets := ds.CalibratorRows(m.FeatureIdx)
		y := make([]float64, len(cTargets))
		// t / TargetScale, where training, Evaluate and RefitCalibrator
		// use t * (1/TargetScale); the two round apart on some targets.
		// Folding them together moves compressed.json, so it waits for a
		// deliberate model move (ROADMAP item 4(a)).
		for i, t := range cTargets {
			y[i] = t / m.TargetScale
		}
		cSet := nn.RegressionSet{X: m.CalibScaler.TransformAll(cRows), Y: y}
		_, cErr = nn.TrainRegressor(m.Calibrator, cSet, nn.TrainConfig{
			Epochs: opts.FineTuneEpochs, BatchSize: opts.BatchSize,
			Optimizer: nn.NewAdam(opts.LearningRate), Seed: opts.Seed + 1,
		})
	}()
	dRows, dLabels := m.DecisionRowsFor(ds, opts.Seed+2)
	dSet := nn.ClassificationSet{X: m.DecisionScaler.TransformAll(dRows), Labels: dLabels}
	_, dErr := nn.TrainClassifier(m.Decision, dSet, nn.TrainConfig{
		Epochs: opts.FineTuneEpochs, BatchSize: opts.BatchSize,
		Optimizer: nn.NewAdam(opts.LearningRate), Seed: opts.Seed,
	})
	wg.Wait()
	if dErr != nil {
		return dErr
	}
	return cErr
}

// PrunePoint prunes a trained model at one (x1, x2) grid point and
// returns its curve point with effective (sparse) FLOPs — one
// independent shard of the pruning sweep.
func PrunePoint(m *core.Model, ds *datagen.Dataset, x1, x2 float64, opts PruneOptions) (Point, error) {
	opts.X1, opts.X2 = x1, x2
	pruned, rep, err := PruneModel(m, ds, opts)
	if err != nil {
		return Point{}, err
	}
	return Point{
		Label:    fmt.Sprintf("x1=%.2f x2=%.2f", x1, x2),
		FLOPs:    pruned.EffectiveFLOPs(),
		Accuracy: rep.Accuracy,
		MAPE:     rep.MAPE,
	}, nil
}
