package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"ssmdvfs/internal/kernels"
)

// marshalAt runs fn and JSON-serializes its result, failing the test on
// any error.
func marshalAt(t *testing.T, fn func() (any, error)) []byte {
	t.Helper()
	v, err := fn()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestPresetSweepDeterministicAcrossWorkers asserts the runner's
// contract on the two extension grids: rows and summaries are
// byte-identical whether the cells run serially or sharded. Runs under
// -race in CI to also prove shard isolation — for the oracle grid, of the
// cells that probe by cloning a simulator.
func TestPresetSweepDeterministicAcrossWorkers(t *testing.T) {
	p := sharedPipeline(t)
	for _, grid := range []struct {
		kernels int
		mech    Mechanism
	}{
		{3, MechSSMDVFSComp},
		{1, MechOracleGreedy},
	} {
		sweep := func(workers int) (any, error) {
			return RunFig4(Fig4Options{
				Sim:        testPipelineOpts().Sim,
				Kernels:    kernels.Evaluation()[:grid.kernels],
				Scale:      testPipelineOpts().Scale,
				Presets:    []float64{0.10, 0.20},
				Compressed: p.Compressed,
				Mechanisms: []Mechanism{grid.mech},
				Workers:    workers,
			})
		}
		serial := marshalAt(t, func() (any, error) { return sweep(1) })
		for _, workers := range []int{3, 8} {
			w := workers
			if par := marshalAt(t, func() (any, error) { return sweep(w) }); !bytes.Equal(serial, par) {
				t.Fatalf("%s grid at workers=%d differs from serial:\n%s\nvs\n%s", grid.mech, w, par, serial)
			}
		}
	}
}

// TestFig4DeterministicAcrossWorkers asserts the same contract on the
// full-system comparison: rows and summaries must not depend on how the
// (kernel, preset, mechanism) grid was sharded.
func TestFig4DeterministicAcrossWorkers(t *testing.T) {
	p := sharedPipeline(t)
	fig4 := func(workers int) (any, error) {
		return RunFig4(Fig4Options{
			Sim:        testPipelineOpts().Sim,
			Kernels:    kernels.Evaluation()[:3],
			Scale:      testPipelineOpts().Scale,
			Presets:    []float64{0.10},
			Model:      p.Model,
			Compressed: p.Compressed,
			Seed:       1,
			Workers:    workers,
		})
	}
	serial := marshalAt(t, func() (any, error) { return fig4(1) })
	if par := marshalAt(t, func() (any, error) { return fig4(6) }); !bytes.Equal(serial, par) {
		t.Fatal("fig4 result differs between workers=1 and workers=6")
	}
}
