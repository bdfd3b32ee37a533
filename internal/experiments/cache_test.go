package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/kernels"
)

// oneStatScaler returns the committed compressed model with a decision
// scaler one statistic long: well-formed JSON that only Validate refuses,
// and that Inference.Decide would index past.
func oneStatScaler(t *testing.T) *core.Model {
	t.Helper()
	m, err := core.LoadFile("../../testdata/bench-cache/compressed.json")
	if err != nil {
		t.Fatal(err)
	}
	m.DecisionScaler = &counters.Scaler{Mean: []float64{0}, Std: []float64{1}}
	return m
}

// TestRunPipelineRefusesBadCacheFile: a cache file that exists and does
// not load stops the build with its path, and is left as it was; only a
// missing file is rebuilt.
func TestRunPipelineRefusesBadCacheFile(t *testing.T) {
	var invalid bytes.Buffer
	if err := oneStatScaler(t).Save(&invalid); err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string][]byte{
		"malformed": []byte(`{"feature_idx":[0,1,`),
		"invalid":   invalid.Bytes(),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for _, f := range []string{"dataset.json", "model.json"} {
				b, err := os.ReadFile(filepath.Join("../../testdata/bench-cache", f))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			comp := filepath.Join(dir, "compressed.json")
			if err := os.WriteFile(comp, content, 0o644); err != nil {
				t.Fatal(err)
			}
			opts := QuickPipelineOptions()
			opts.CacheDir = dir
			_, err := RunPipeline(opts)
			if err == nil || !strings.Contains(err.Error(), comp) {
				t.Fatalf("RunPipeline = %v, want an error naming %s", err, comp)
			}
			got, err := os.ReadFile(comp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, content) {
				t.Fatal("the cache file that did not load was overwritten")
			}
		})
	}
}

// TestRunFig4RefusesInvalidModel: an in-memory model that fails Validate
// is refused by the grid's up-front mechanism check, before any cell is
// simulated, instead of running every epoch on the PCSTALL fallback.
func TestRunFig4RefusesInvalidModel(t *testing.T) {
	res, err := RunFig4(Fig4Options{
		Sim:        QuickPipelineOptions().Sim,
		Kernels:    kernels.Evaluation()[:1],
		Scale:      0.4,
		Compressed: oneStatScaler(t),
		Mechanisms: []Mechanism{MechSSMDVFSComp},
	})
	if err == nil || res != nil || !strings.Contains(err.Error(), "decision scaler") {
		t.Fatalf("RunFig4 = (%v, %v), want a refusal of the decision scaler", res, err)
	}
}
