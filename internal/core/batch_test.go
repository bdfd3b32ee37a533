package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ssmdvfs/internal/infer"
)

// TestDecideBatchMatchesRowAtATime pins the batched decision path to
// per-row Decide (a one-row batch), bit for bit, for both backend kinds and across batch
// sizes that hit the tile body and the remainder loop.
func TestDecideBatchMatchesRowAtATime(t *testing.T) {
	base := trainedModel(t, 31)
	for _, kind := range []infer.Kind{infer.KindFloat64, infer.KindInt8} {
		m := base.Clone()
		m.Backend = kind
		if err := m.EnsureBackends(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		inf := NewInference(m)
		ref := NewInference(m)
		rng := rand.New(rand.NewSource(8))
		for _, n := range []int{1, 2, 4, 5, 8, 31, 64} {
			feats := make([][]float64, n)
			presets := make([]float64, n)
			inf.BeginBatch(n)
			for i := 0; i < n; i++ {
				feats[i] = randomFeatures(rng)
				presets[i] = rng.Float64() * 0.3
				inf.SetBatchRow(i, feats[i], presets[i])
			}
			inf.DecideBatch()
			if inf.bRows != n {
				t.Fatalf("%s n=%d: batch ran %d rows", kind, n, inf.bRows)
			}
			for i := 0; i < n; i++ {
				wantLevel, wantPred := ref.Decide(feats[i], presets[i])
				if inf.BatchLevel(i) != wantLevel || inf.BatchPredInstr(i) != wantPred {
					t.Fatalf("%s n=%d row %d: batch (%d, %g) != row (%d, %g)",
						kind, n, i, inf.BatchLevel(i), inf.BatchPredInstr(i), wantLevel, wantPred)
				}
				wantLogits := ref.BatchLogits(0)
				gotLogits := inf.BatchLogits(i)
				for k := range wantLogits {
					if gotLogits[k] != wantLogits[k] {
						t.Fatalf("%s n=%d row %d logit %d: %g != %g", kind, n, i, k, gotLogits[k], wantLogits[k])
					}
				}
				wantRow := ref.BatchDerived(0)
				gotRow := inf.BatchDerived(i)
				for k := range wantRow {
					if gotRow[k] != wantRow[k] {
						t.Fatalf("%s n=%d row %d derived %d: %g != %g", kind, n, i, k, gotRow[k], wantRow[k])
					}
				}
			}
		}
	}
}

func TestDecideBatchSteadyStateAllocs(t *testing.T) {
	m := trainedModel(t, 32)
	inf := NewInference(m)
	rng := rand.New(rand.NewSource(9))
	const n = 32
	feats := make([][]float64, n)
	for i := range feats {
		feats[i] = randomFeatures(rng)
	}
	run := func() {
		inf.BeginBatch(n)
		for i := 0; i < n; i++ {
			inf.SetBatchRow(i, feats[i], 0.1)
		}
		inf.DecideBatch()
	}
	run() // grow the buffers
	if allocs := testing.AllocsPerRun(200, run); allocs > 0 {
		t.Fatalf("DecideBatch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEnsureBackendsRejectsCorruptInt8 is the hot-swap gate: a model
// declaring the int8 backend whose decision head has an all-zero layer
// must fail EnsureBackends with the structured infer error, and
// NewController must refuse it.
func TestEnsureBackendsRejectsCorruptInt8(t *testing.T) {
	m := trainedModel(t, 33)
	m.Backend = infer.KindInt8
	for i := range m.Decision.Layers[0].W {
		m.Decision.Layers[0].W[i] = 0
	}
	err := m.EnsureBackends()
	if err == nil || !strings.Contains(err.Error(), "quantize") {
		t.Fatalf("EnsureBackends = %v, want quantize-stage error", err)
	}
	if _, err := NewController(m, 0.1, 4, true); err == nil {
		t.Fatal("NewController accepted a model whose int8 backend cannot be built")
	}
}

// TestConcurrentLazyBackendBuild binds 16 fresh Inference contexts to one
// unbuilt model at once; with -race this pins the package-mutex-guarded
// lazy construction. A Clone of the built model starts unbuilt.
func TestConcurrentLazyBackendBuild(t *testing.T) {
	m := trainedModel(t, 35)
	m.Backend = infer.KindInt8
	feats := randomFeatures(rand.New(rand.NewSource(10)))
	want := -1
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inf := NewInference(m)
			level := inf.DecideLevel(feats, 0.1)
			mu.Lock()
			defer mu.Unlock()
			if want == -1 {
				want = level
			} else if level != want {
				t.Errorf("level %d != %d", level, want)
			}
		}()
	}
	wg.Wait()
	// Clone drops the built pair but keeps the kind.
	if cp := m.Clone(); cp.bk != nil || cp.Backend != infer.KindInt8 {
		t.Fatalf("Clone carried bk %v, backend %q; want nil, int8", cp.bk, cp.Backend)
	}
}
