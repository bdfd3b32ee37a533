package nn

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentForwardMatchesSerial hammers one read-only MLP from 16
// goroutines, each alternating the allocating Forward with one-row
// ForwardBatch calls on its own BatchScratch, asserting bit-identical
// outputs to the serial pass. Run with -race this verifies inference
// shares no mutable state across callers.
func TestConcurrentForwardMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := NewMLP([]int{6, 20, 20, 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 256
	xs := make([][]float64, rows)
	want := make([][]float64, rows)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
		want[i] = m.Forward(xs[i])
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var one Batch
			var s BatchScratch
			for rep := 0; rep < 8; rep++ {
				for i := range xs {
					var got []float64
					if (g+rep)%2 == 0 {
						one.Reset(1, len(xs[i]))
						copy(one.Data, xs[i])
						got = m.ForwardBatch(&one, &s).Row(0)
					} else {
						got = m.Forward(xs[i])
					}
					for k := range got {
						if got[k] != want[i][k] {
							t.Errorf("goroutine %d row %d out %d: %g != %g", g, i, k, got[k], want[i][k])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
