package nn

import (
	"fmt"
	"math/rand"
)

// ClassificationSet is a labelled dataset for a classifier head.
type ClassificationSet struct {
	X      [][]float64
	Labels []int
}

// Len returns the number of samples.
func (s ClassificationSet) Len() int { return len(s.X) }

// Validate checks shape consistency against a class count.
func (s ClassificationSet) Validate(classes int) error {
	if len(s.X) != len(s.Labels) {
		return fmt.Errorf("nn: %d inputs vs %d labels", len(s.X), len(s.Labels))
	}
	for i, l := range s.Labels {
		if l < 0 || l >= classes {
			return fmt.Errorf("nn: sample %d label %d out of range [0,%d)", i, l, classes)
		}
	}
	return nil
}

// RegressionSet is a dataset for a regression head with scalar targets.
type RegressionSet struct {
	X [][]float64
	Y []float64
}

// Len returns the number of samples.
func (s RegressionSet) Len() int { return len(s.X) }

// TrainConfig controls a training run.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	// Seed drives the shuffle order; training is fully deterministic.
	Seed int64
	// OnEpoch, if set, is called after each epoch with the epoch index and
	// mean training loss (e.g. for logging or early stopping); returning
	// false stops training.
	OnEpoch func(epoch int, loss float64) bool
}

func (c TrainConfig) validate() error {
	if c.Epochs <= 0 {
		return fmt.Errorf("nn: Epochs must be positive, got %d", c.Epochs)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("nn: BatchSize must be positive, got %d", c.BatchSize)
	}
	if c.Optimizer == nil {
		return fmt.Errorf("nn: Optimizer is required")
	}
	return nil
}

// trainScratch is one training call's working memory, so that a training
// step allocates nothing: every layer's output, the loss gradient with
// respect to every layer's input but the first, and the loss gradient with
// respect to the network output.
type trainScratch struct {
	outs [][]float64 // outs[i] is layer i's output, after ReLU on hidden layers
	dIn  [][]float64 // dIn[i] has layer i's input size; dIn[0] is nil
	dOut []float64
}

func newTrainScratch(m *MLP) *trainScratch {
	s := &trainScratch{
		outs: make([][]float64, len(m.Layers)),
		dIn:  make([][]float64, len(m.Layers)),
		dOut: make([]float64, m.OutputSize()),
	}
	for i, l := range m.Layers {
		s.outs[i] = make([]float64, l.Out)
		if i > 0 {
			s.dIn[i] = make([]float64, l.In)
		}
	}
	return s
}

// forward runs x through m, keeping every layer's output for backward,
// and returns the network output.
func (s *trainScratch) forward(m *MLP, x []float64) []float64 {
	h := x
	for i, l := range m.Layers {
		l.ForwardInto(h, s.outs[i])
		if i+1 < len(m.Layers) {
			relu(s.outs[i])
		}
		h = s.outs[i]
	}
	return h
}

// backward backpropagates s.dOut, the loss gradient of the output forward
// last computed from x, accumulating every layer's gradients.
func (s *trainScratch) backward(m *MLP, x []float64) {
	g := s.dOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		// Gradient through the ReLU that followed layer i (none after the
		// final layer): it passes where layer i's output is positive.
		if i+1 < len(m.Layers) {
			for j, a := range s.outs[i] {
				if a <= 0 {
					g[j] = 0
				}
			}
		}
		in := x
		if i > 0 {
			in = s.outs[i-1]
		}
		m.Layers[i].Backward(in, g, s.dIn[i])
		g = s.dIn[i]
	}
}

// TrainClassifier fits m on the dataset with softmax-cross-entropy and
// returns the final epoch's mean loss.
func TrainClassifier(m *MLP, set ClassificationSet, cfg TrainConfig) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if err := set.Validate(m.OutputSize()); err != nil {
		return 0, err
	}
	if set.Len() == 0 {
		return 0, fmt.Errorf("nn: empty training set")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, set.Len())
	for i := range order {
		order[i] = i
	}
	s := newTrainScratch(m)
	var epochLoss float64
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss = 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			m.ZeroGrad()
			for _, idx := range order[start:end] {
				x := set.X[idx]
				epochLoss += CrossEntropyLoss(s.forward(m, x), set.Labels[idx], s.dOut)
				s.backward(m, x)
			}
			cfg.Optimizer.Step(m, end-start)
		}
		epochLoss /= float64(set.Len())
		if cfg.OnEpoch != nil && !cfg.OnEpoch(e, epochLoss) {
			break
		}
	}
	return epochLoss, nil
}

// TrainRegressor fits m on the dataset with MSE and returns the final
// epoch's mean loss. Targets are scalar; m must have OutputSize 1.
func TrainRegressor(m *MLP, set RegressionSet, cfg TrainConfig) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if m.OutputSize() != 1 {
		return 0, fmt.Errorf("nn: TrainRegressor requires a scalar head, got %d outputs", m.OutputSize())
	}
	if len(set.X) != len(set.Y) {
		return 0, fmt.Errorf("nn: %d inputs vs %d targets", len(set.X), len(set.Y))
	}
	if set.Len() == 0 {
		return 0, fmt.Errorf("nn: empty training set")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, set.Len())
	for i := range order {
		order[i] = i
	}
	s := newTrainScratch(m)
	target := make([]float64, 1)
	var epochLoss float64
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss = 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			m.ZeroGrad()
			for _, idx := range order[start:end] {
				x := set.X[idx]
				target[0] = set.Y[idx]
				epochLoss += MSELoss(s.forward(m, x), target, s.dOut)
				s.backward(m, x)
			}
			cfg.Optimizer.Step(m, end-start)
		}
		epochLoss /= float64(set.Len())
		if cfg.OnEpoch != nil && !cfg.OnEpoch(e, epochLoss) {
			break
		}
	}
	return epochLoss, nil
}

// EvalClassifier returns accuracy of m on the set.
func EvalClassifier(m *MLP, set ClassificationSet) float64 {
	preds := make([]int, set.Len())
	for i, x := range set.X {
		preds[i] = Argmax(m.Forward(x))
	}
	return Accuracy(preds, set.Labels)
}

// EvalRegressor returns the MAPE (%) of m on the set.
func EvalRegressor(m *MLP, set RegressionSet) float64 {
	preds := make([]float64, set.Len())
	for i, x := range set.X {
		preds[i] = m.Forward(x)[0]
	}
	return MAPE(preds, set.Y)
}
