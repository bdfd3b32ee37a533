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

// TrainConfig controls a training run: every one runs all Epochs, in
// minibatches of BatchSize, and Adam steps once per minibatch.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer *Adam
	// Seed drives the shuffle order; training is fully deterministic.
	Seed int64
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
// step allocates nothing: the minibatch's inputs and every layer's output
// over it, the loss gradient with respect to every layer's input but the
// first, and the loss gradient with respect to the network output.
//
// forward runs the whole minibatch through ForwardBatch's kernel, the
// vector tile or the scalar one; backward then runs one sample at a time
// on row k of what forward kept. The weights change only in the optimizer
// step after the last backward, so the outputs forward kept are the ones
// a sample-by-sample forward would compute. When vectorTile is set the
// backward runs on trainBackward and live is its list of rows to run; on
// the scalar step live is nil.
type trainScratch struct {
	x    Batch        // the minibatch's inputs, row k for its k-th sample
	fwd  BatchScratch // fwd.bufs[i] is layer i's output, after ReLU on hidden layers
	dIn  [][]float64  // dIn[i] has layer i's input size; dIn[0] is nil on the scalar step
	dOut []float64
	live []int
}

func newTrainScratch(m *MLP) *trainScratch {
	s := &trainScratch{
		dIn:  make([][]float64, len(m.Layers)),
		dOut: make([]float64, m.OutputSize()),
	}
	for i, l := range m.Layers {
		if i > 0 {
			s.dIn[i] = make([]float64, l.In)
		}
	}
	if vectorTile {
		// trainBackward reads and writes by these shapes unchecked.
		for i, l := range m.Layers {
			if len(l.W) != l.In*l.Out || len(l.GradW) != len(l.W) || len(l.B) != l.Out || len(l.GradB) != l.Out {
				panic(fmt.Sprintf("nn: layer %d is %dx%d with %d weights, %d biases", i, l.In, l.Out, len(l.W), len(l.B)))
			}
			if l.Out > len(s.live) {
				s.live = make([]int, l.Out)
			}
		}
		s.dIn[0] = make([]float64, m.InputSize()) // trainBackward's discarded dx
	}
	return s
}

// forward runs the minibatch, samples idx of xs, through m in one
// ForwardBatch, keeping every layer's output for backward, and returns
// the network's outputs: row k is sample idx[k]'s.
func (s *trainScratch) forward(m *MLP, xs [][]float64, idx []int) *Batch {
	in := m.InputSize()
	s.x.Reset(len(idx), in)
	for k, j := range idx {
		if len(xs[j]) != in {
			panic(fmt.Sprintf("nn: sample %d has %d inputs, model wants %d", j, len(xs[j]), in))
		}
		copy(s.x.Row(k), xs[j])
	}
	return m.forwardBatch(&s.x, &s.fwd, true)
}

// backward backpropagates s.dOut, the loss gradient of output row k of
// the last forward, accumulating every layer's gradients.
func (s *trainScratch) backward(m *MLP, k int) {
	g := s.dOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		in := s.x.Row(k)
		if i > 0 {
			in = s.fwd.bufs[i-1].Row(k)
		}
		if s.live != nil {
			// trainBackward vectorises Dense.Backward across each weight
			// row and gates the input gradient by the ReLU that produced
			// the layer's input, what the scalar step gates layer i-1's
			// upstream gradient by, in the same call.
			trainBackward(&l.W[0], &l.GradW[0], &l.GradB[0], &in[0], &g[0], &s.dIn[i][0], &s.live[0], l.In, l.Out)
			g = s.dIn[i]
			continue
		}
		// Gradient through the ReLU that followed layer i (none after the
		// final layer): it passes where layer i's output is positive.
		if i+1 < len(m.Layers) {
			for j, a := range s.fwd.bufs[i].Row(k) {
				if a <= 0 {
					g[j] = 0
				}
			}
		}
		l.Backward(in, g, s.dIn[i])
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
	for range cfg.Epochs {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss = 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			m.ZeroGrad()
			batch := order[start:end]
			y := s.forward(m, set.X, batch)
			for k, idx := range batch {
				epochLoss += CrossEntropyLoss(y.Row(k), set.Labels[idx], s.dOut)
				s.backward(m, k)
			}
			cfg.Optimizer.Step(m, end-start)
		}
		epochLoss /= float64(set.Len())
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
	for range cfg.Epochs {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss = 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			m.ZeroGrad()
			batch := order[start:end]
			y := s.forward(m, set.X, batch)
			for k, idx := range batch {
				target[0] = set.Y[idx]
				epochLoss += MSELoss(y.Row(k), target, s.dOut)
				s.backward(m, k)
			}
			cfg.Optimizer.Step(m, end-start)
		}
		epochLoss /= float64(set.Len())
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
