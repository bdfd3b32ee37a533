package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/datagen"
	"ssmdvfs/internal/infer"
	"ssmdvfs/internal/nn"
)

// int8LogitsHash is the FNV-64a digest of every int8 logit bit pattern
// TestInt8LogitsPinned produces. It pins the int8 backend's numerics:
// quantiser, kernel and rounding. Change it only on purpose, with the
// reason in the commit.
const int8LogitsHash uint64 = 0xcfa0ba0acb7c2965

// TestInt8LogitsPinned runs every row of the committed bench corpus
// through the int8 backend of both heads of both committed models and
// hashes math.Float64bits of each output. The decision row is the
// selected features plus the sample's loss as preset, the calibrator row
// adds the sample's level, both standardized by the model's scalers.
// The digest holds for amd64, where Go does not fuse multiply-adds.
func TestInt8LogitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64; other architectures may fuse multiply-adds")
	}
	const cache = "../../testdata/bench-cache"
	ds, err := datagen.LoadFile(filepath.Join(cache, "dataset.json"))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var word [8]byte
	for _, name := range []string{"compressed.json", "model.json"} {
		m, err := LoadFile(filepath.Join(cache, name))
		if err != nil {
			t.Fatal(err)
		}
		n := m.NumFeatures()
		for _, head := range []struct {
			mlp    *nn.MLP
			scaler *counters.Scaler
			cols   int
		}{
			{m.Decision, m.DecisionScaler, n + 1},
			{m.Calibrator, m.CalibScaler, n + 2},
		} {
			bk, err := infer.New(head.mlp, infer.KindInt8)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var x nn.Batch
			x.Reset(len(ds.Samples), head.cols)
			raw := make([]float64, head.cols)
			for i, s := range ds.Samples {
				counters.SelectInto(s.Features, m.FeatureIdx, raw)
				raw[n] = s.PerfLoss
				if head.cols > n+1 {
					raw[n+1] = float64(s.Level)
				}
				head.scaler.TransformInto(raw, x.Row(i))
			}
			var s infer.Scratch
			for _, v := range bk.ForwardBatch(&x, &s).Data {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
		}
	}
	if got := h.Sum64(); got != int8LogitsHash {
		t.Fatalf("int8 logits hash %#x, want %#x", got, int8LogitsHash)
	}
}
