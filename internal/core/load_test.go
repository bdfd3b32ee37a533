package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssmdvfs/internal/counters"
)

// benchCache is the committed quick-scale cache: its two models are the
// artifacts the CLI smoke, the benches and these tests read.
const benchCache = "../../testdata/bench-cache/"

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	want := trainedModel(t, 7)
	if err := want.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params() != want.Params() {
		t.Fatalf("loaded %d params, saved %d", got.Params(), want.Params())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadRefusesInvalidModels mutates the committed compressed model one
// field at a time; Load must refuse each mutation with Validate's reason,
// so no caller that reads a model file can get a model that panics or
// decides out of range.
func TestLoadRefusesInvalidModels(t *testing.T) {
	raw, err := os.ReadFile(benchCache + "compressed.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(m map[string]any)
		want   string // a substring of the refusal
	}{
		{"levels 9", func(m map[string]any) { m["levels"] = 9 }, "decision head output 6, want 9"},
		{"levels 2", func(m map[string]any) { m["levels"] = 2 }, "decision head output 6, want 2"},
		{"1-stat decision scaler", func(m map[string]any) {
			m["decision_scaler"] = map[string]any{"Mean": []float64{0}, "Std": []float64{1}}
		}, "decision scaler has 1/1 stats, want 6"},
		{"calibrator std[0] = 0", func(m map[string]any) {
			m["calib_scaler"].(map[string]any)["Std"].([]any)[0] = 0
		}, "calibrator scaler std[0] = 0"},
		{"feature index 47", func(m map[string]any) {
			m["feature_idx"].([]any)[4] = counters.Num
		}, "feature index 47 out of range"},
		{"fractional feature index", func(m map[string]any) {
			m["feature_idx"].([]any)[4] = 3.5
		}, "cannot unmarshal number 3.5"},
		{"no calibrator scaler", func(m map[string]any) { delete(m, "calib_scaler") }, "missing the calibrator scaler"},
		{"decision head of the wrong input width", func(m map[string]any) {
			m["decision"] = m["calibrator"]
		}, "decision head input 7, want 6"},
		{"hidden layer that does not chain", func(m map[string]any) {
			layers := m["decision"].(map[string]any)["layers"].([]any)
			layers[1].(map[string]any)["in"] = 11
		}, "decision head: nn: layer 1"},
		{"short bias", func(m map[string]any) {
			l := m["calibrator"].(map[string]any)["layers"].([]any)[0].(map[string]any)
			l["b"] = l["b"].([]any)[1:]
		}, "calibrator head: nn: layer 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m map[string]any
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			tc.mutate(m)
			b, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Load(bytes.NewReader(b))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load = %v, want a refusal containing %q", err, tc.want)
			}
		})
	}
	// The mutation harness itself changes nothing: the unmutated
	// round trip through a map loads.
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(b)); err != nil {
		t.Fatalf("unmutated model refused: %v", err)
	}
}

// TestNewControllerValidatesModel: a model built in memory meets the same
// gate at construction that a model read from a file meets in Load.
func TestNewControllerValidatesModel(t *testing.T) {
	m, err := LoadFile(benchCache + "compressed.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewController(m, 0.1, 4, true); err != nil {
		t.Fatalf("committed model refused: %v", err)
	}
	m.DecisionScaler = &counters.Scaler{Mean: []float64{0}, Std: []float64{1}}
	if _, err := NewController(m, 0.1, 4, true); err == nil {
		t.Fatal("controller built on a model with a 1-stat decision scaler")
	}
}
