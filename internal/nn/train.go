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
//
// When vectorTile is set the step runs on the AVX2 kernels, and packed[i]
// holds layer i's bias and then its weights transposed, input-major, each
// row zero-padded to lanes(Out) outputs: trainForward reads it, so it is
// packed when the scratch is made and again after every optimizer step,
// the only place the weights change; outs[i] has that padded capacity.
// packed is nil on the scalar step.
type trainScratch struct {
	outs   [][]float64 // outs[i] is layer i's output, after ReLU on hidden layers
	dIn    [][]float64 // dIn[i] has layer i's input size; dIn[0] is nil on the scalar step
	dOut   []float64
	packed [][]float64
	live   []int // trainBackward's list of rows to run
}

// lanes rounds n up to whole 4-lane vectors.
func lanes(n int) int { return (n + 3) &^ 3 }

func newTrainScratch(m *MLP) *trainScratch {
	s := &trainScratch{
		outs: make([][]float64, len(m.Layers)),
		dIn:  make([][]float64, len(m.Layers)),
		dOut: make([]float64, m.OutputSize()),
	}
	for i, l := range m.Layers {
		s.outs[i] = make([]float64, l.Out, lanes(l.Out))
		if i > 0 {
			s.dIn[i] = make([]float64, l.In)
		}
	}
	if vectorTile {
		// The kernels read and write by these shapes unchecked.
		for i, l := range m.Layers {
			if len(l.W) != l.In*l.Out || len(l.GradW) != len(l.W) || len(l.B) != l.Out || len(l.GradB) != l.Out {
				panic(fmt.Sprintf("nn: layer %d is %dx%d with %d weights, %d biases", i, l.In, l.Out, len(l.W), len(l.B)))
			}
			if i > 0 && l.In != m.Layers[i-1].Out {
				panic(fmt.Sprintf("nn: layer %d takes %d inputs, layer %d gives %d", i, l.In, i-1, m.Layers[i-1].Out))
			}
			s.packed = append(s.packed, make([]float64, (l.In+1)*lanes(l.Out)))
			if i == 0 {
				s.dIn[0] = make([]float64, l.In) // trainBackward's discarded dx
			}
			if l.Out > len(s.live) {
				s.live = make([]int, l.Out)
			}
		}
		s.pack(m)
	}
	return s
}

// pack refreshes packed from m's weights; on the scalar step it does
// nothing. The padding lanes are never written, so they stay zero.
func (s *trainScratch) pack(m *MLP) {
	for li, p := range s.packed {
		l := m.Layers[li]
		stride := lanes(l.Out)
		copy(p, l.B)
		for o := 0; o < l.Out; o++ {
			for i, w := range l.W[o*l.In : (o+1)*l.In] {
				p[(i+1)*stride+o] = w
			}
		}
	}
}

// forward runs x through m, keeping every layer's output for backward,
// and returns the network output.
func (s *trainScratch) forward(m *MLP, x []float64) []float64 {
	if s.packed != nil {
		return s.forwardVector(m, x)
	}
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

// forwardVector is forward on trainForward: each output starts from its
// bias and adds W[o][i]·x[i] in ascending i, as ForwardInto does, four
// outputs to a vector.
func (s *trainScratch) forwardVector(m *MLP, x []float64) []float64 {
	if l := m.Layers[0]; len(x) != l.In {
		panic(fmt.Sprintf("nn: Dense %dx%d forward with |x|=%d |y|=%d", l.In, l.Out, len(x), l.Out))
	}
	h := x
	for i, l := range m.Layers {
		y := s.outs[i]
		trainForward(&s.packed[i][0], &h[0], &y[:cap(y)][0], l.In, cap(y), i+1 < len(m.Layers))
		h = y
	}
	return h
}

// backward backpropagates s.dOut, the loss gradient of the output forward
// last computed from x, accumulating every layer's gradients.
func (s *trainScratch) backward(m *MLP, x []float64) {
	if s.packed != nil {
		s.backwardVector(m, x)
		return
	}
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

// backwardVector is backward on trainBackward, which vectorises
// Dense.Backward across each weight row and gates the input gradient by
// the ReLU that produced the layer's input (outs[i-1], what the scalar
// step gates layer i-1's upstream gradient by) in the same call.
func (s *trainScratch) backwardVector(m *MLP, x []float64) {
	g := s.dOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		in := x
		if i > 0 {
			in = s.outs[i-1]
		}
		trainBackward(&l.W[0], &l.GradW[0], &l.GradB[0], &in[0], &g[0], &s.dIn[i][0], &s.live[0], l.In, l.Out)
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
			s.pack(m)
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
			s.pack(m)
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
