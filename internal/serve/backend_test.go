package serve

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/infer"
)

// TestEngineBackendOption covers backend selection at construction: the
// option picks the backend, an unknown name is rejected before the
// engine exists, and the served decisions land in the backend's per-kind
// counters with multi-row frames reaching the batched kernel.
func TestEngineBackendOption(t *testing.T) {
	if _, err := NewServer(testModel(t, 20), Options{Backend: "fp7"}); err == nil {
		t.Fatal("unknown backend name accepted")
	}

	srv, err := NewServer(testModel(t, 20), Options{Backend: "int8", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.BackendKind(); got != infer.KindInt8 {
		t.Fatalf("BackendKind = %q, want %q", got, infer.KindInt8)
	}

	rng := rand.New(rand.NewSource(21))
	rows := make([]Request, 8)
	for i := range rows {
		rows[i] = Request{Preset: 0.1, Features: featureRow(rng)}
	}
	decs := srv.DecideBatch(rows, nil)
	if len(decs) != len(rows) {
		t.Fatalf("got %d decisions, want %d", len(decs), len(rows))
	}
	m := srv.Model()
	for i, d := range decs {
		if d.Level < 0 || d.Level >= m.Levels {
			t.Fatalf("row %d: level %d out of range", i, d.Level)
		}
	}

	met := srv.Metrics()
	if got := met.InferRowsI8.Load(); got != int64(len(rows)) {
		t.Fatalf("int8 rows = %d, want %d", got, len(rows))
	}
	if got := met.InferRowsF64.Load(); got != 0 {
		t.Fatalf("float64 rows = %d, want 0 on an int8 engine", got)
	}
	if got := met.InferBatchesI8.Load(); got != 1 {
		t.Fatalf("int8 batches = %d, want 1 (the whole frame in one ForwardBatch)", got)
	}
	// 8 rows in one call lands in bucket [8,16) = index 4; everything
	// below must be empty or the frame decayed to row-at-a-time.
	if b := srv.Telemetry().Snapshot().Histograms["serve_infer_batch_rows"].Buckets; len(b) == 0 || b[4] != 1 {
		t.Fatalf("batch-rows histogram %v, want one call in bucket 4", b)
	}
}

// TestBackendDecisionsMatchDirectInference pins the served int8 answers
// to a direct core.Inference on the same model: the engine's gather loop
// and batch staging must not change the numerics.
func TestBackendDecisionsMatchDirectInference(t *testing.T) {
	m := testModel(t, 22)
	srv, err := NewServer(m, Options{Backend: "int8", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	rows := make([]Request, 32)
	for i := range rows {
		rows[i] = Request{Preset: 0.15, Features: featureRow(rng)}
	}
	decs := srv.DecideBatch(rows, nil)

	ref := core.NewInference(srv.Model())
	for i, row := range rows {
		wantLevel, wantPred := ref.Decide(row.Features, row.Preset)
		if decs[i].Level != wantLevel {
			t.Fatalf("row %d: served level %d, direct %d", i, decs[i].Level, wantLevel)
		}
		if diff := decs[i].PredInstr - wantPred; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("row %d: served prediction %g, direct %g", i, decs[i].PredInstr, wantPred)
		}
	}
}

// TestSwapRejectsCorruptBackend hot-swaps in a model whose decision head
// cannot be quantized (an all-zero layer): the reload must fail at the
// "backend" stage with the old model still serving.
func TestSwapRejectsCorruptBackend(t *testing.T) {
	srv, err := NewServer(testModel(t, 24), Options{Backend: "int8"})
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Model()

	corrupt := testModel(t, 25)
	for i := range corrupt.Decision.Layers[0].W {
		corrupt.Decision.Layers[0].W[i] = 0
	}
	for i := range corrupt.Decision.Layers[0].B {
		corrupt.Decision.Layers[0].B[i] = 0
	}
	path := filepath.Join(t.TempDir(), "corrupt.json")
	if err := corrupt.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	err = srv.Reload(path)
	var re *ReloadError
	if !errors.As(err, &re) || re.Stage != "backend" {
		t.Fatalf("reload of unquantizable model: got %v, want *ReloadError{Stage:\"backend\"}", err)
	}
	var ie *infer.Error
	if !errors.As(err, &ie) || ie.Stage != "quantize" {
		t.Fatalf("cause = %v, want *infer.Error{Stage:\"quantize\"}", err)
	}
	if srv.Model() != before {
		t.Fatal("failed backend build replaced the serving model")
	}
	if got := srv.Metrics().Reloads.Load(); got != 0 {
		t.Fatalf("failed reload counted as success: reloads = %d", got)
	}
}
