package compress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ssmdvfs/internal/nn"
)

func newNet(t *testing.T, sizes []int, seed int64) *nn.MLP {
	t.Helper()
	m, err := nn.NewMLP(sizes, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMagnitudePruneFraction(t *testing.T) {
	m := newNet(t, []int{10, 20, 10, 6}, 1)
	total := 0
	for _, l := range m.Layers {
		total += len(l.W)
	}
	if err := MagnitudePrune(m, 0.6); err != nil {
		t.Fatal(err)
	}
	nz := 0
	for _, l := range m.Layers {
		nz += l.NonzeroWeights()
	}
	frac := 1 - float64(nz)/float64(total)
	if frac < 0.55 || frac > 0.65 {
		t.Fatalf("pruned fraction = %.3f, want ≈ 0.6", frac)
	}
}

func TestMagnitudePruneKeepsLargest(t *testing.T) {
	m := newNet(t, []int{4, 4}, 2)
	l := m.Layers[0]
	for i := range l.W {
		l.W[i] = float64(i + 1) // magnitudes 1..16
	}
	if err := MagnitudePrune(m, 0.5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if l.W[i] != 0 {
			t.Fatalf("small weight %d survived: %g", i, l.W[i])
		}
	}
	for i := 9; i < 16; i++ {
		if l.W[i] == 0 {
			t.Fatalf("large weight %d pruned", i)
		}
	}
}

func TestMagnitudePruneZeroIsNoop(t *testing.T) {
	m := newNet(t, []int{5, 8, 3}, 3)
	before := m.Clone()
	if err := MagnitudePrune(m, 0); err != nil {
		t.Fatal(err)
	}
	for li := range m.Layers {
		for wi := range m.Layers[li].W {
			if m.Layers[li].W[wi] != before.Layers[li].W[wi] {
				t.Fatal("zero-fraction prune modified weights")
			}
		}
	}
}

func TestMagnitudePruneBadFraction(t *testing.T) {
	m := newNet(t, []int{3, 3}, 4)
	if err := MagnitudePrune(m, -0.1); err == nil {
		t.Fatal("negative fraction accepted")
	}
	if err := MagnitudePrune(m, 1.1); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}

func TestNeuronPrunePreservesIO(t *testing.T) {
	m := newNet(t, []int{7, 16, 12, 4}, 5)
	if err := MagnitudePrune(m, 0.8); err != nil {
		t.Fatal(err)
	}
	pruned, err := NeuronPrune(m, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.InputSize() != 7 || pruned.OutputSize() != 4 {
		t.Fatalf("I/O dims changed: in=%d out=%d", pruned.InputSize(), pruned.OutputSize())
	}
	// Hidden layers must have shrunk under this much sparsity.
	if pruned.Params() >= m.Params() {
		t.Fatalf("neuron pruning did not shrink the network: %d >= %d", pruned.Params(), m.Params())
	}
	// The network must remain connected and runnable.
	out := pruned.Forward(make([]float64, 7))
	if len(out) != 4 {
		t.Fatalf("pruned forward output size %d", len(out))
	}
}

func TestNeuronPruneZeroThresholdRemovesAll(t *testing.T) {
	// zeroFrac 0 marks every neuron as "too sparse" (every neuron has
	// ≥ 0 fraction zeros) — the implementation must keep at least one
	// neuron per layer rather than collapsing.
	m := newNet(t, []int{4, 8, 3}, 6)
	pruned, err := NeuronPrune(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range pruned.Layers[:len(pruned.Layers)-1] {
		if l.Out < 1 {
			t.Fatalf("layer %d collapsed to %d neurons", i, l.Out)
		}
	}
}

func TestNeuronPruneIdentityWhenDense(t *testing.T) {
	// With no zeros and threshold 1.0, nothing is removed and the
	// function must preserve behaviour exactly.
	m := newNet(t, []int{5, 9, 3}, 7)
	pruned, err := NeuronPrune(m, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, -0.3, 0.4, -0.5}
	a, b := m.Forward(x), pruned.Forward(x)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("dense NeuronPrune changed outputs: %v vs %v", a, b)
		}
	}
}

func TestPruneReducesEffectiveFLOPs(t *testing.T) {
	m := newNet(t, []int{6, 12, 12, 6}, 8)
	cp := m.Clone()
	if err := MagnitudePrune(cp, 0.6); err != nil {
		t.Fatal(err)
	}
	pruned, err := NeuronPrune(cp, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.EffectiveFLOPs() >= m.FLOPs() {
		t.Fatalf("pruning did not reduce FLOPs: %d >= %d", pruned.EffectiveFLOPs(), m.FLOPs())
	}
	if pruned.InputSize() != 6 || pruned.OutputSize() != 6 {
		t.Fatal("pruning changed I/O dims")
	}
}

func TestPruneProperty(t *testing.T) {
	f := func(seed int64, x1raw, x2raw uint8) bool {
		x1 := float64(x1raw) / 255 * 0.9
		x2 := float64(x2raw)/255*0.8 + 0.2
		m, err := nn.NewMLP([]int{5, 10, 8, 4}, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		cp := m.Clone()
		if err := MagnitudePrune(cp, x1); err != nil {
			return false
		}
		pruned, err := NeuronPrune(cp, x2)
		if err != nil {
			return false
		}
		if pruned.InputSize() != 5 || pruned.OutputSize() != 4 {
			return false
		}
		// Forward pass must stay finite.
		out := pruned.Forward([]float64{1, -1, 0.5, 2, -0.3})
		for _, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return pruned.EffectiveFLOPs() <= m.FLOPs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func TestStandardGridShapes(t *testing.T) {
	grid := StandardGrid()
	if len(grid) == 0 {
		t.Fatal("empty grid")
	}
	for _, a := range grid {
		if len(a.DecisionHidden) < 1 || len(a.CalibratorHidden) < 1 {
			t.Fatalf("degenerate architecture %+v", a)
		}
	}
}
