package core

import (
	"fmt"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/infer"
	"ssmdvfs/internal/nn"
)

// Inference is a reusable inference context over a Model: it owns the
// feature-selection, scaling, and backend scratch buffers so that
// steady-state decisions allocate nothing — the serving hot path. All
// inference routes through the model's infer.Backend pair (float64 or
// int8), never nn.MLP directly. The underlying Model and its backends
// are only read, so any number of Inference contexts may share one Model
// concurrently; the Inference itself belongs to a single goroutine at a
// time (pool one per worker, e.g. with sync.Pool).
type Inference struct {
	m   *Model
	dBk infer.Backend // decision head
	cBk infer.Backend // calibrator head

	dRow, cRow []float64 // raw [features..., preset(, level)] rows
	dStd, cStd []float64 // standardized copies
	dScratch   infer.Scratch
	cScratch   infer.Scratch
	lastLogits []float64 // decision-head output of the last DecideLevel

	// Batch state (BeginBatch/SetBatchRow/DecideBatch). dIn and cIn are
	// standardized backend inputs; raws keeps each row's raw derived
	// features + preset for provenance capture.
	dIn     nn.Batch
	cIn     nn.Batch
	raws    nn.Batch
	bLevels []int
	bPreds  []float64
	bLogits *nn.Batch
	bRows   int
}

// NewInference builds an inference context bound to m.
func NewInference(m *Model) *Inference {
	inf := &Inference{}
	inf.Bind(m)
	return inf
}

// Bind points the context at a (possibly different) model, resizing the
// scratch buffers if the feature set changed. Buffers are retained across
// rebinds, so hot-swapping models keeps the path allocation-free; binding
// the already-bound model is a pointer compare and nothing else, which is
// what the serving engine does once per batch.
//
// Bind panics if the model's declared backend cannot be built — serving
// paths validate with Model.EnsureBackends before publishing a model, so
// the panic only fires when that contract is broken (and the serving
// engine's per-batch recovery degrades it to a fallback decision).
func (inf *Inference) Bind(m *Model) {
	if inf.m == m && inf.dBk != nil {
		return
	}
	bk, err := m.backends()
	if err != nil {
		panic(fmt.Sprintf("core: binding unvalidated model (call EnsureBackends first): %v", err))
	}
	inf.m = m
	inf.dBk, inf.cBk = bk.decision, bk.calibrator
	nd, nc := m.NumFeatures()+1, m.NumFeatures()+2
	if cap(inf.dRow) < nd {
		inf.dRow = make([]float64, nd)
		inf.dStd = make([]float64, nd)
	}
	if cap(inf.cRow) < nc {
		inf.cRow = make([]float64, nc)
		inf.cStd = make([]float64, nc)
	}
	inf.dRow, inf.dStd = inf.dRow[:nd], inf.dStd[:nd]
	inf.cRow, inf.cStd = inf.cRow[:nc], inf.cStd[:nc]
}

// Backend returns the kind of backend the context currently infers with.
func (inf *Inference) Backend() infer.Kind { return inf.dBk.Describe().Kind }

// DecideLevel returns the operating-point level for the next epoch given
// the full 47-counter vector of the just-finished epoch and the (possibly
// calibrated) performance-loss preset. It routes through the model's
// declared inference backend, so offline evaluation sees the same
// numerics the serving tier does (int8 included), and allocates nothing.
func (inf *Inference) DecideLevel(fullFeatures []float64, preset float64) int {
	m := inf.m
	n := len(m.FeatureIdx)
	counters.SelectInto(fullFeatures, m.FeatureIdx, inf.dRow)
	inf.dRow[n] = preset
	m.DecisionScaler.TransformInto(inf.dRow, inf.dStd)
	logits := inf.dBk.Forward(inf.dStd, &inf.dScratch)
	inf.lastLogits = logits
	return nn.Argmax(logits)
}

// Logits returns the Decision head's raw output from the most recent
// DecideLevel/Decide call (one score per level), for provenance capture.
// The slice aliases the inference scratch: read it before the next call
// and do not retain it.
func (inf *Inference) Logits() []float64 { return inf.lastLogits }

// DecisionRow returns the raw (unscaled) input row of the most recent
// DecideLevel/Decide call: the selected features followed by the preset.
// Like Logits, it aliases scratch and must not be retained.
func (inf *Inference) DecisionRow() []float64 { return inf.dRow }

// PredictInstructions returns the Calibrator's estimate of the next
// epoch's instruction count given the counters, the *originally set*
// preset (per the paper, the Calibrator always sees the uncalibrated
// preset), and the level the Decision-maker chose. Like DecideLevel it
// routes through the model's declared backend and allocates nothing.
func (inf *Inference) PredictInstructions(fullFeatures []float64, preset float64, level int) float64 {
	m := inf.m
	n := len(m.FeatureIdx)
	counters.SelectInto(fullFeatures, m.FeatureIdx, inf.cRow)
	inf.cRow[n] = preset
	inf.cRow[n+1] = float64(level)
	m.CalibScaler.TransformInto(inf.cRow, inf.cStd)
	out := inf.cBk.Forward(inf.cStd, &inf.cScratch)
	pred := out[0] * m.TargetScale
	if pred < 0 {
		return 0
	}
	return pred
}

// Decide runs one combined serving step: pick the next epoch's operating
// level and predict its instruction count (the pair the ASIC engine
// produces per 10 µs epoch).
func (inf *Inference) Decide(fullFeatures []float64, preset float64) (level int, predInstr float64) {
	level = inf.DecideLevel(fullFeatures, preset)
	return level, inf.PredictInstructions(fullFeatures, preset, level)
}

// BeginBatch prepares the context for a decision batch of up to n rows.
// Fill rows with SetBatchRow, run them with DecideBatch, then read the
// per-row results through the Batch* accessors. Steady-state batches
// allocate nothing once the buffers have grown to the engine's chunk
// size. Row i of every accessor corresponds to SetBatchRow's i, and each
// row's results are identical to what Decide would return for it.
func (inf *Inference) BeginBatch(n int) {
	m := inf.m
	nf := m.NumFeatures()
	inf.dIn.Reset(n, nf+1)
	inf.cIn.Reset(n, nf+2)
	inf.raws.Reset(n, nf+1)
	if cap(inf.bLevels) < n {
		inf.bLevels = make([]int, n)
		inf.bPreds = make([]float64, n)
	}
	inf.bLevels = inf.bLevels[:n]
	inf.bPreds = inf.bPreds[:n]
	inf.bLogits = nil
	inf.bRows = 0
}

// SetBatchRow stages row i: selects and standardizes the decision-head
// input and keeps the raw derived row for provenance. Rows 0..n-1 must
// all be set before DecideBatch.
func (inf *Inference) SetBatchRow(i int, fullFeatures []float64, preset float64) {
	m := inf.m
	nf := len(m.FeatureIdx)
	raw := inf.raws.Row(i)
	counters.SelectInto(fullFeatures, m.FeatureIdx, raw)
	raw[nf] = preset
	m.DecisionScaler.TransformInto(raw, inf.dIn.Row(i))
	if i >= inf.bRows {
		inf.bRows = i + 1
	}
}

// DecideBatch runs the staged rows through both heads: one batched
// decision inference (argmax per row), then one batched calibration
// inference with each row's chosen level appended — each row under the
// preset it was staged with, matching what per-row Decide calls would
// produce.
func (inf *Inference) DecideBatch() {
	m := inf.m
	n := inf.bRows
	nf := len(m.FeatureIdx)
	if n != inf.dIn.Rows {
		// Partial batches run with exactly the staged rows.
		inf.dIn.Rows = n
		inf.dIn.Data = inf.dIn.Data[:n*(nf+1)]
		inf.cIn.Rows = n
		inf.cIn.Data = inf.cIn.Data[:n*(nf+2)]
		inf.raws.Rows = n
		inf.raws.Data = inf.raws.Data[:n*(nf+1)]
		inf.bLevels = inf.bLevels[:n]
		inf.bPreds = inf.bPreds[:n]
	}
	logits := inf.dBk.ForwardBatch(&inf.dIn, &inf.dScratch)
	inf.bLogits = logits
	for i := 0; i < n; i++ {
		inf.bLevels[i] = nn.Argmax(logits.Row(i))
	}
	// Stage the calibrator batch: same raw features + preset, plus the
	// level just chosen, standardized by the calibrator's scaler.
	for i := 0; i < n; i++ {
		raw := inf.raws.Row(i)
		inf.cRow = inf.cRow[:nf+2]
		copy(inf.cRow, raw[:nf])
		inf.cRow[nf] = raw[nf]
		inf.cRow[nf+1] = float64(inf.bLevels[i])
		m.CalibScaler.TransformInto(inf.cRow, inf.cIn.Row(i))
	}
	preds := inf.cBk.ForwardBatch(&inf.cIn, &inf.cScratch)
	for i := 0; i < n; i++ {
		pred := preds.Row(i)[0] * m.TargetScale
		if pred < 0 {
			pred = 0
		}
		inf.bPreds[i] = pred
	}
}

// BatchLevel returns row i's chosen operating level.
func (inf *Inference) BatchLevel(i int) int { return inf.bLevels[i] }

// BatchPredInstr returns row i's predicted next-epoch instruction count.
func (inf *Inference) BatchPredInstr(i int) float64 { return inf.bPreds[i] }

// BatchLogits returns row i's decision logits. Like Logits, the slice
// aliases scratch: read before the next inference, do not retain.
func (inf *Inference) BatchLogits(i int) []float64 { return inf.bLogits.Row(i) }

// BatchDerived returns row i's raw derived row (selected features then
// preset), aliasing scratch like DecisionRow.
func (inf *Inference) BatchDerived(i int) []float64 { return inf.raws.Row(i) }
