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
// int8), never nn.MLP directly, and every entry point runs the batch
// kernel: a single decision is a one-row batch in row 0 of the batch
// buffers. The underlying Model and its backends are only read, so any
// number of Inference contexts may share one Model concurrently; the
// Inference itself belongs to a single goroutine at a time (pool one per
// worker, e.g. with sync.Pool).
type Inference struct {
	m   *Model
	dBk infer.Backend // decision head
	cBk infer.Backend // calibrator head

	dScratch infer.Scratch
	cScratch infer.Scratch

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

// Bind points the context at a (possibly different) model. Buffers are
// retained across rebinds and reshaped by the next batch, so hot-swapping
// models keeps the path allocation-free; binding the already-bound model
// is a pointer compare and nothing else, which is what the serving engine
// does once per batch.
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
}

// Backend returns the kind of backend the context currently infers with.
func (inf *Inference) Backend() infer.Kind { return inf.dBk.Describe().Kind }

// DecideLevel returns the operating-point level for the next epoch given
// the full 47-counter vector of the just-finished epoch and the (possibly
// calibrated) performance-loss preset. It stages the row as a one-row
// batch and runs the decision head's pass of DecideBatch, through the
// model's declared inference backend, so offline evaluation sees the same
// numerics the serving tier does (int8 included), and allocates nothing.
// BatchDerived(0) and BatchLogits(0) then hold the row and its logits.
func (inf *Inference) DecideLevel(fullFeatures []float64, preset float64) int {
	inf.BeginBatch(1)
	inf.SetBatchRow(0, fullFeatures, preset)
	inf.decideLevels()
	return inf.bLevels[0]
}

// PredictInstructions returns the Calibrator's estimate of the next
// epoch's instruction count given the counters, the *originally set*
// preset (per the paper, the Calibrator always sees the uncalibrated
// preset), and the level the Decision-maker chose. It runs the
// calibrator's pass of DecideBatch on a one-row batch and allocates
// nothing. It stages only the calibrator's input, so the decision row and
// logits of a preceding DecideLevel stay readable.
func (inf *Inference) PredictInstructions(fullFeatures []float64, preset float64, level int) float64 {
	m := inf.m
	nf := len(m.FeatureIdx)
	inf.cIn.Reset(1, nf+2)
	row := inf.cIn.Row(0)
	counters.SelectInto(fullFeatures, m.FeatureIdx, row)
	row[nf] = preset
	row[nf+1] = float64(level)
	m.CalibScaler.TransformInto(row, row)
	return inf.instructions(inf.cBk.ForwardBatch(&inf.cIn, &inf.cScratch).Row(0))
}

// Decide runs one combined serving step: pick the next epoch's operating
// level and predict its instruction count (the pair the ASIC engine
// produces per 10 µs epoch). It is DecideBatch on a one-row batch.
func (inf *Inference) Decide(fullFeatures []float64, preset float64) (level int, predInstr float64) {
	inf.BeginBatch(1)
	inf.SetBatchRow(0, fullFeatures, preset)
	inf.DecideBatch()
	return inf.bLevels[0], inf.bPreds[0]
}

// BeginBatch prepares the context for a decision batch of up to n rows.
// Fill rows with SetBatchRow, run them with DecideBatch, then read the
// per-row results through the Batch* accessors. Steady-state batches
// allocate nothing once the buffers have grown to the engine's chunk
// size. Row i of every accessor corresponds to SetBatchRow's i.
func (inf *Inference) BeginBatch(n int) {
	m := inf.m
	nf := m.NumFeatures()
	inf.dIn.Reset(n, nf+1)
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
// preset it was staged with.
func (inf *Inference) DecideBatch() {
	m := inf.m
	inf.decideLevels()
	n := inf.bRows
	nf := len(m.FeatureIdx)
	// Stage the calibrator batch: same raw features + preset, plus the
	// level just chosen, standardized by the calibrator's scaler.
	inf.cIn.Reset(n, nf+2)
	for i := 0; i < n; i++ {
		row := inf.cIn.Row(i)
		copy(row, inf.raws.Row(i))
		row[nf+1] = float64(inf.bLevels[i])
		m.CalibScaler.TransformInto(row, row)
	}
	preds := inf.cBk.ForwardBatch(&inf.cIn, &inf.cScratch)
	for i := 0; i < n; i++ {
		inf.bPreds[i] = inf.instructions(preds.Row(i))
	}
}

// decideLevels runs the decision head over the staged rows (exactly the
// staged rows of a partial batch) and takes each row's argmax.
func (inf *Inference) decideLevels() {
	n := inf.bRows
	nd := inf.dIn.Cols
	inf.dIn.Rows, inf.dIn.Data = n, inf.dIn.Data[:n*nd]
	inf.raws.Rows, inf.raws.Data = n, inf.raws.Data[:n*nd]
	inf.bLevels = inf.bLevels[:n]
	inf.bPreds = inf.bPreds[:n]
	logits := inf.dBk.ForwardBatch(&inf.dIn, &inf.dScratch)
	inf.bLogits = logits
	for i := 0; i < n; i++ {
		inf.bLevels[i] = nn.Argmax(logits.Row(i))
	}
}

// instructions turns a calibrator output row into an instruction count:
// the scaled prediction, floored at 0.
func (inf *Inference) instructions(out []float64) float64 {
	pred := out[0] * inf.m.TargetScale
	if pred < 0 {
		return 0
	}
	return pred
}

// BatchLevel returns row i's chosen operating level.
func (inf *Inference) BatchLevel(i int) int { return inf.bLevels[i] }

// BatchPredInstr returns row i's predicted next-epoch instruction count.
func (inf *Inference) BatchPredInstr(i int) float64 { return inf.bPreds[i] }

// BatchLogits returns row i's decision logits, row 0 after DecideLevel
// or Decide. The slice aliases scratch: read it before the next
// inference and do not retain it.
func (inf *Inference) BatchLogits(i int) []float64 { return inf.bLogits.Row(i) }

// BatchDerived returns row i's raw derived row (selected features then
// preset), row 0 after DecideLevel or Decide. Like BatchLogits, it
// aliases scratch and must not be retained.
func (inf *Inference) BatchDerived(i int) []float64 { return inf.raws.Row(i) }
