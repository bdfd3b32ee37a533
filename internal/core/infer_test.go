package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ssmdvfs/internal/counters"
)

func trainedModel(t *testing.T, seed int64) *Model {
	t.Helper()
	ds := syntheticDataset(200, seed)
	o := quickOpts()
	o.Epochs = 10
	m, _, err := Train(ds, o)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomFeatures(rng *rand.Rand) []float64 {
	feats := make([]float64, counters.Num)
	m := rng.Float64()
	feats[counters.IdxIPC] = 2.0 * (1 - m)
	feats[counters.IdxPPC] = 3 + 4*(1-m)
	feats[counters.IdxMH] = 60000 * m
	feats[counters.IdxMHNL] = 5000 * m
	feats[counters.IdxL1CRM] = 2000 * m
	return feats
}

// TestInferenceMatchesModel pins a reused inference context to a fresh
// one per call.
func TestInferenceMatchesModel(t *testing.T) {
	m := trainedModel(t, 21)
	inf := NewInference(m)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		feats := randomFeatures(rng)
		preset := rng.Float64() * 0.3
		wantLevel := NewInference(m).DecideLevel(feats, preset)
		gotLevel, gotPred := inf.Decide(feats, preset)
		if gotLevel != wantLevel {
			t.Fatalf("iter %d: Inference level %d, Model level %d", i, gotLevel, wantLevel)
		}
		wantPred := NewInference(m).PredictInstructions(feats, preset, wantLevel)
		if gotPred != wantPred {
			t.Fatalf("iter %d: Inference pred %g, Model pred %g", i, gotPred, wantPred)
		}
	}
}

func TestInferenceSteadyStateAllocs(t *testing.T) {
	m := trainedModel(t, 22)
	inf := NewInference(m)
	feats := randomFeatures(rand.New(rand.NewSource(1)))
	allocs := testing.AllocsPerRun(200, func() {
		inf.Decide(feats, 0.1)
	})
	if allocs > 0 {
		t.Fatalf("Inference.Decide allocates %.1f objects/op, want 0", allocs)
	}
}

// TestConcurrentInferenceMatchesSerial hammers one *Model from 16
// goroutines — through both a fresh Inference per call and one reused
// context per goroutine — and asserts every output is identical to the serial path.
// Run under -race this is the audit that the forward pass shares no
// mutable state.
func TestConcurrentInferenceMatchesSerial(t *testing.T) {
	m := trainedModel(t, 23)

	const rows = 512
	feats := make([][]float64, rows)
	presets := make([]float64, rows)
	rng := rand.New(rand.NewSource(7))
	for i := range feats {
		feats[i] = randomFeatures(rng)
		presets[i] = rng.Float64() * 0.3
	}
	// Serial reference.
	wantLevel := make([]int, rows)
	wantPred := make([]float64, rows)
	for i := range feats {
		wantLevel[i] = NewInference(m).DecideLevel(feats[i], presets[i])
		wantPred[i] = NewInference(m).PredictInstructions(feats[i], presets[i], wantLevel[i])
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			inf := NewInference(m)
			for rep := 0; rep < 4; rep++ {
				for i := range feats {
					var level int
					var pred float64
					if (g+rep)%2 == 0 {
						level, pred = inf.Decide(feats[i], presets[i])
					} else {
						level = NewInference(m).DecideLevel(feats[i], presets[i])
						pred = NewInference(m).PredictInstructions(feats[i], presets[i], level)
					}
					if level != wantLevel[i] || pred != wantPred[i] {
						t.Errorf("goroutine %d row %d: (%d, %g) != serial (%d, %g)",
							g, i, level, pred, wantLevel[i], wantPred[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSaveFileAtomicUnderConcurrentLoads saves a model to one path from
// several writers while readers continuously LoadFile it: thanks to the
// temp-file + rename write, every load must yield a complete, valid
// model (this is the hot-reload daemon's contract).
func TestSaveFileAtomicUnderConcurrentLoads(t *testing.T) {
	a := trainedModel(t, 24)
	b := a.Clone()
	for _, l := range b.Decision.Layers {
		for i := range l.W {
			l.W[i] *= 1.0001
		}
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w, m := range []*Model{a, b} {
		wg.Add(1)
		go func(w int, m *Model) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if err := m.SaveFile(path); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w, m)
	}
	var readerWg sync.WaitGroup
	for r := 0; r < 4; r++ {
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m, err := LoadFile(path)
				if err != nil {
					t.Errorf("torn read: %v", err)
					return
				}
				if m.Levels != a.Levels || m.NumFeatures() != a.NumFeatures() {
					t.Errorf("loaded model malformed: %d levels, %d features", m.Levels, m.NumFeatures())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWg.Wait()

	// No temp droppings left behind.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries, want just the model file", len(ents))
	}
}
