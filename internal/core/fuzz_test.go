package core

import (
	"bytes"
	"os"
	"testing"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/datagen"
)

// FuzzModelLoad mutates the committed models. Whatever Load accepts must
// be usable without a panic: Decide answers a level in [0, Levels) on a
// zero row and on a corpus row, a controller builds on it and decides an
// epoch on the model, not the fallback, and Save writes bytes that load
// and save again to the same bytes.
func FuzzModelLoad(f *testing.F) {
	for _, name := range []string{"model.json", "compressed.json"} {
		b, err := os.ReadFile(benchCache + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	ds, err := datagen.LoadFile(benchCache + "dataset.json")
	if err != nil {
		f.Fatal(err)
	}
	rows := [][]float64{make([]float64, counters.Num), ds.Samples[0].Features}
	stats := statsWith(0, 20000, true)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		inf := NewInference(m)
		for _, row := range rows {
			if level, _ := inf.Decide(row, 0.1); level < 0 || level >= m.Levels {
				t.Fatalf("Decide = level %d of %d", level, m.Levels)
			}
		}
		ctrl, err := NewController(m, 0.1, 1, true)
		if err != nil {
			t.Fatalf("NewController refused a loaded model: %v", err)
		}
		ctrl.Decide(stats)
		if n := ctrl.Fallbacks(); n != 0 {
			t.Fatalf("%d fallbacks on a loaded model", n)
		}
		var saved bytes.Buffer
		if err := m.Save(&saved); err != nil {
			t.Fatal(err)
		}
		again, err := Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("a saved model does not load: %v", err)
		}
		var resaved bytes.Buffer
		if err := again.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Fatal("save → load → save changed the bytes")
		}
	})
}
