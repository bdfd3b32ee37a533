package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMLPShapes(t *testing.T) {
	m, err := NewMLP([]int{5, 20, 20, 6}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if m.InputSize() != 5 || m.OutputSize() != 6 {
		t.Fatalf("in=%d out=%d", m.InputSize(), m.OutputSize())
	}
	want := []int{5, 20, 20, 6}
	got := m.Sizes()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sizes = %v, want %v", got, want)
		}
	}
	if got, want := m.FLOPs(), 2*(5*20+20*20+20*6); got != want {
		t.Fatalf("FLOPs = %d, want %d", got, want)
	}
	if got, want := m.Params(), (5*20+20)+(20*20+20)+(20*6+6); got != want {
		t.Fatalf("Params = %d, want %d", got, want)
	}
}

func TestNewMLPErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewMLP([]int{5}, rng); err == nil {
		t.Fatal("single size accepted")
	}
	if _, err := NewMLP([]int{5, 0, 3}, rng); err == nil {
		t.Fatal("zero layer size accepted")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(a, b, c float64) bool {
		logits := []float64{clamp(a), clamp(b), clamp(c)}
		p := softmaxInto(make([]float64, len(logits)), logits)
		var sum float64
		for _, x := range p {
			if x < 0 || x > 1 || math.IsNaN(x) {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 100)
}

func TestSoftmaxStability(t *testing.T) {
	p := softmaxInto(make([]float64, 3), []float64{1000, 1001, 999})
	for _, x := range p {
		if math.IsNaN(x) {
			t.Fatal("softmax overflowed on large logits")
		}
	}
}

func TestArgmax(t *testing.T) {
	if got := Argmax([]float64{1, 5, 3}); got != 1 {
		t.Fatalf("Argmax = %d, want 1", got)
	}
	if got := Argmax([]float64{2, 2, 2}); got != 0 {
		t.Fatalf("Argmax ties = %d, want 0 (lowest index)", got)
	}
}

// TestClassifierGradientCheck verifies analytical gradients against
// central finite differences through the full network + softmax CE loss.
func TestClassifierGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, err := NewMLP([]int{4, 7, 5, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -1.2, 0.8, 2.1}
	label := 2

	m.ZeroGrad()
	s := newTrainScratch(m)
	CrossEntropyLoss(s.forward(m, [][]float64{x}, []int{0}).Row(0), label, s.dOut)
	s.backward(m, 0)

	const eps = 1e-6
	lossAt := func() float64 {
		return CrossEntropyLoss(m.Forward(x), label, make([]float64, m.OutputSize()))
	}
	for li, layer := range m.Layers {
		for wi := 0; wi < len(layer.W); wi += 7 { // sample weights
			orig := layer.W[wi]
			layer.W[wi] = orig + eps
			lp := lossAt()
			layer.W[wi] = orig - eps
			lm := lossAt()
			layer.W[wi] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := layer.GradW[wi]
			if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d weight %d: analytic %g vs numeric %g", li, wi, analytic, numeric)
			}
		}
		for bi := range layer.B {
			orig := layer.B[bi]
			layer.B[bi] = orig + eps
			lp := lossAt()
			layer.B[bi] = orig - eps
			lm := lossAt()
			layer.B[bi] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-layer.GradB[bi]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d bias %d: analytic %g vs numeric %g", li, bi, layer.GradB[bi], numeric)
			}
		}
	}
}

// TestRegressorGradientCheck does the same through the MSE loss.
func TestRegressorGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m, err := NewMLP([]int{3, 6, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1.5, -0.4, 0.2}
	target := []float64{0.7}

	m.ZeroGrad()
	s := newTrainScratch(m)
	MSELoss(s.forward(m, [][]float64{x}, []int{0}).Row(0), target, s.dOut)
	s.backward(m, 0)

	const eps = 1e-6
	lossAt := func() float64 {
		return MSELoss(m.Forward(x), target, make([]float64, len(target)))
	}
	for li, layer := range m.Layers {
		for wi := range layer.W {
			orig := layer.W[wi]
			layer.W[wi] = orig + eps
			lp := lossAt()
			layer.W[wi] = orig - eps
			lm := lossAt()
			layer.W[wi] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-layer.GradW[wi]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d weight %d: analytic %g vs numeric %g", li, wi, layer.GradW[wi], numeric)
			}
		}
	}
}

// makeBlobs builds a linearly separable 3-class dataset.
func makeBlobs(n int, seed int64) ClassificationSet {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{{2, 0}, {-2, 2}, {0, -3}}
	var set ClassificationSet
	for i := 0; i < n; i++ {
		c := i % 3
		set.X = append(set.X, []float64{
			centers[c][0] + rng.NormFloat64()*0.4,
			centers[c][1] + rng.NormFloat64()*0.4,
		})
		set.Labels = append(set.Labels, c)
	}
	return set
}

func TestTrainClassifierLearnsBlobs(t *testing.T) {
	train := makeBlobs(300, 11)
	test := makeBlobs(90, 12)
	m, err := NewMLP([]int{2, 16, 3}, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainClassifier(m, train, TrainConfig{
		Epochs: 60, BatchSize: 16, Optimizer: NewAdam(0.01), Seed: 14,
	}); err != nil {
		t.Fatal(err)
	}
	if acc := EvalClassifier(m, test); acc < 0.95 {
		t.Fatalf("blob accuracy = %.2f, want >= 0.95", acc)
	}
}

func TestTrainRegressorLearnsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var set RegressionSet
	for i := 0; i < 400; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		set.X = append(set.X, x)
		set.Y = append(set.Y, 0.5*x[0]-0.8*x[1]+0.3)
	}
	m, err := NewMLP([]int{2, 16, 1}, rand.New(rand.NewSource(16)))
	if err != nil {
		t.Fatal(err)
	}
	loss, err := TrainRegressor(m, set, TrainConfig{
		Epochs: 80, BatchSize: 16, Optimizer: NewAdam(0.01), Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 1e-3 {
		t.Fatalf("final MSE = %g, want < 1e-3", loss)
	}
}

func TestTrainDeterministic(t *testing.T) {
	train := makeBlobs(120, 18)
	build := func() *MLP {
		m, _ := NewMLP([]int{2, 8, 3}, rand.New(rand.NewSource(19)))
		_, err := TrainClassifier(m, train, TrainConfig{
			Epochs: 10, BatchSize: 8, Optimizer: NewAdam(0.01), Seed: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := build(), build()
	for li := range m1.Layers {
		for wi := range m1.Layers[li].W {
			if m1.Layers[li].W[wi] != m2.Layers[li].W[wi] {
				t.Fatal("identical seeds produced different weights")
			}
		}
	}
}

func TestTrainConfigValidation(t *testing.T) {
	m, _ := NewMLP([]int{2, 3}, rand.New(rand.NewSource(1)))
	set := makeBlobs(9, 1)
	bad := []TrainConfig{
		{Epochs: 0, BatchSize: 4, Optimizer: NewAdam(0.01)},
		{Epochs: 5, BatchSize: 0, Optimizer: NewAdam(0.01)},
		{Epochs: 5, BatchSize: 4},
	}
	for i, cfg := range bad {
		if _, err := TrainClassifier(m, set, cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	// Label out of range.
	set.Labels[0] = 3
	if _, err := TrainClassifier(m, set, TrainConfig{Epochs: 1, BatchSize: 4, Optimizer: NewAdam(0.01)}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestMaskBlocksWeightAndGradient(t *testing.T) {
	m, _ := NewMLP([]int{2, 4, 3}, rand.New(rand.NewSource(21)))
	l := m.Layers[0]
	mask := make([]float64, len(l.W))
	mask[0] = 1 // keep only the first weight
	if err := l.SetMask(mask); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(l.W); i++ {
		if l.W[i] != 0 {
			t.Fatalf("masked weight %d = %g, want 0", i, l.W[i])
		}
	}
	// Training must not resurrect masked weights.
	set := makeBlobs(60, 22)
	if _, err := TrainClassifier(m, set, TrainConfig{
		Epochs: 5, BatchSize: 8, Optimizer: NewAdam(0.01), Seed: 23,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(l.W); i++ {
		if l.W[i] != 0 {
			t.Fatalf("masked weight %d became %g after training", i, l.W[i])
		}
	}
	if l.NonzeroWeights() > 1 {
		t.Fatalf("NonzeroWeights = %d, want <= 1", l.NonzeroWeights())
	}
	if got := l.EffectiveFLOPs(); got > 2 {
		t.Fatalf("EffectiveFLOPs = %d, want <= 2", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, _ := NewMLP([]int{3, 5, 2}, rand.New(rand.NewSource(24)))
	mask := make([]float64, len(m.Layers[0].W))
	for i := range mask {
		mask[i] = float64(i % 2)
	}
	if err := m.Layers[0].SetMask(mask); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, -0.5, 0.9}
	a, b := m.Forward(x), got.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loaded model diverges: %v vs %v", a, b)
		}
	}
	if got.Layers[0].Mask == nil {
		t.Fatal("mask not round-tripped")
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	cases := []string{
		``,
		`{}`,
		`{"layers":[{"in":2,"out":3,"w":[1,2],"b":[0,0,0]}]}`,                                  // wrong W size
		`{"layers":[{"in":2,"out":1,"w":[1,2],"b":[0]},{"in":3,"out":1,"w":[1,2,3],"b":[0]}]}`, // shape mismatch
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewReader([]byte(c))); err == nil {
			t.Fatalf("corrupt model %d accepted", i)
		}
	}
}

func TestMAPE(t *testing.T) {
	got := MAPE([]float64{110, 90}, []float64{100, 100})
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("MAPE = %g, want 10", got)
	}
	// Near-zero targets are skipped.
	if got := MAPE([]float64{5}, []float64{0}); got != 0 {
		t.Fatalf("MAPE with zero target = %g, want 0", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	m, _ := NewMLP([]int{2, 4, 2}, rand.New(rand.NewSource(25)))
	cp := m.Clone()
	cp.Layers[0].W[0] += 100
	if m.Layers[0].W[0] == cp.Layers[0].W[0] {
		t.Fatal("clone shares weight storage")
	}
}

func TestAdamConverges(t *testing.T) {
	train := makeBlobs(200, 26)
	m, _ := NewMLP([]int{2, 12, 3}, rand.New(rand.NewSource(27)))
	loss, err := TrainClassifier(m, train, TrainConfig{
		Epochs: 40, BatchSize: 16, Optimizer: NewAdam(0.01), Seed: 28,
	})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.2 {
		t.Fatalf("final loss %g, want < 0.2", loss)
	}
}

func TestLoadRejectsNonFiniteWeights(t *testing.T) {
	// 1e999 overflows float64; the decoder or the finiteness check must
	// reject it either way.
	corrupt := `{"layers":[{"in":1,"out":1,"w":[1e999],"b":[0]}]}`
	if _, err := Load(bytes.NewReader([]byte(corrupt))); err == nil {
		t.Fatal("infinite weight accepted")
	}
}

// TestTrainingStepAllocatesNothing: one epoch of TrainClassifier or
// TrainRegressor allocates the same whatever the sample count — the
// per-call set-up only, nothing per sample or per minibatch.
func TestTrainingStepAllocatesNothing(t *testing.T) {
	epochAllocs := func(n int) (classify, regress float64) {
		cset := makeBlobs(n, 40)
		rset := RegressionSet{X: cset.X, Y: make([]float64, n)}
		for i := range rset.Y {
			rset.Y[i] = cset.X[i][0] - cset.X[i][1]
		}
		cm, _ := NewMLP([]int{2, 8, 8, 3}, rand.New(rand.NewSource(41)))
		rm, _ := NewMLP([]int{2, 8, 1}, rand.New(rand.NewSource(42)))
		// One optimizer each, stepped before measuring: its moment buffers
		// are allocated on the first step of a network's life.
		copt, ropt := NewAdam(0.01), NewAdam(0.01)
		cfg := func(opt *Adam) TrainConfig { return TrainConfig{Epochs: 1, BatchSize: 8, Optimizer: opt, Seed: 43} }
		if _, err := TrainClassifier(cm, cset, cfg(copt)); err != nil {
			t.Fatal(err)
		}
		if _, err := TrainRegressor(rm, rset, cfg(ropt)); err != nil {
			t.Fatal(err)
		}
		classify = testing.AllocsPerRun(5, func() { TrainClassifier(cm, cset, cfg(copt)) })
		regress = testing.AllocsPerRun(5, func() { TrainRegressor(rm, rset, cfg(ropt)) })
		return classify, regress
	}
	c1, r1 := epochAllocs(48)
	c4, r4 := epochAllocs(4 * 48)
	if c1 != c4 || r1 != r4 {
		t.Fatalf("an epoch allocates %v/%v times over 48 samples and %v/%v over 192 (classifier/regressor): training allocates per sample or per minibatch",
			c1, r1, c4, r4)
	}
}
