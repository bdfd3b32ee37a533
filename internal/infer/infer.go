// Package infer is the serving-side inference API: every component that
// turns feature rows into logits — core.Inference, serve.Engine, the
// fleet tier's coalesced dispatch, benches — goes through a Backend
// instead of calling nn.MLP methods directly. Two backends exist: the
// float64 reference path (nn.MLP.ForwardBatch) and an int8 path built by
// per-output-channel symmetric weight quantization with dynamic per-row
// activation scales, exact integer accumulation on nn's float64 batch
// kernel, and fused dequantize+ReLU. Both run a single row as a one-row
// batch on that kernel. Backends are immutable once built and safe for
// any number of concurrent callers; all mutable state lives in the
// per-goroutine Scratch.
//
// The paper's engine is FP32 (Section V-D), and int8 is a numerics study
// here, chosen in process through serve.Options.Backend. Its weight
// quantizer is the package's only one: Quantize applies it at any width
// to build the fake-quantized networks behind `ssmdvfs quant`.
package infer

import (
	"fmt"

	"ssmdvfs/internal/nn"
)

// Kind names an inference backend implementation.
type Kind string

const (
	// KindFloat64 is the reference backend: float64 weights and
	// activations, bit-identical to nn.MLP.Forward.
	KindFloat64 Kind = "float64"
	// KindInt8 is the quantized backend: int8 weights (per-output-channel
	// symmetric scales), int8 activations (per-row dynamic scales),
	// exact integer accumulation on the float64 batch kernel, float64
	// dequantize fused with ReLU.
	KindInt8 Kind = "int8"
)

// ParseKind validates a backend name, such as serve.Options.Backend. The
// empty string means "unspecified" and resolves to the float64 default.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "", KindFloat64:
		return KindFloat64, nil
	case KindInt8:
		return KindInt8, nil
	}
	return "", &Error{Kind: Kind(s), Stage: "kind", Layer: -1,
		Err: fmt.Errorf("unknown backend %q (want %q or %q)", s, KindFloat64, KindInt8)}
}

// Description reports what a backend serves: its kind, shape and weight
// width.
type Description struct {
	Kind       Kind
	In, Out    int
	Layers     int
	Params     int
	WeightBits int // 64 for float64, 8 for int8
}

// Scratch holds every buffer a backend needs: the one-row staging batch
// Forward runs, per-layer activations, and the int8 backend's quantized
// rows and scales. One Scratch serves either backend kind, so a hot-swap
// between kinds reuses the same pooled scratches. A Scratch belongs to
// one goroutine at a time; backends themselves are read-only and shared.
type Scratch struct {
	one   nn.Batch // 1-row staging for Forward
	batch nn.BatchScratch
	i8    int8Scratch
}

// forwardRow is every backend's Forward: x staged as a one-row batch
// through b's ForwardBatch. One kernel, one set of numerics, so the row
// and batch paths cannot drift apart.
func forwardRow(b Backend, x []float64, s *Scratch) []float64 {
	s.one.Reset(1, len(x))
	copy(s.one.Data, x)
	return b.ForwardBatch(&s.one, s).Row(0)
}

// Backend runs inference for one network. Forward and ForwardBatch
// return slices/batches aliasing s, valid until the next call with the
// same Scratch. Output row r of ForwardBatch always corresponds to input
// row r, and Forward is ForwardBatch on a one-row batch.
type Backend interface {
	Forward(x []float64, s *Scratch) []float64
	ForwardBatch(x *nn.Batch, s *Scratch) *nn.Batch
	Describe() Description
}

// Error is a structured backend construction/validation failure, in the
// same shape as serve.ReloadError: the failing stage and layer survive
// up the stack so a rejected hot-swap can say exactly what was wrong
// with the artifact.
type Error struct {
	Kind  Kind
	Stage string // "kind", "quantize", "parity"
	Layer int    // layer index, or -1 when not layer-specific
	Err   error
}

func (e *Error) Error() string {
	if e.Layer >= 0 {
		return fmt.Sprintf("infer: backend %s %s (layer %d): %v", e.Kind, e.Stage, e.Layer, e.Err)
	}
	return fmt.Sprintf("infer: backend %s %s: %v", e.Kind, e.Stage, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// New builds a backend of the given kind over m. The float64 kind always
// succeeds; the int8 kind fails with a structured *Error if any layer
// quantizes to a zero or non-finite scale (a corrupt artifact would
// otherwise serve all-zero or NaN logits). m must not be mutated while
// the backend is in use.
func New(m *nn.MLP, kind Kind) (Backend, error) {
	switch kind {
	case "", KindFloat64:
		return &float64Backend{m: m}, nil
	case KindInt8:
		return newInt8Backend(m)
	}
	_, err := ParseKind(string(kind))
	return nil, err
}

// float64Backend is the reference path: thin routing onto nn's batch
// kernel, bit-identical to nn.MLP.Forward.
type float64Backend struct {
	m *nn.MLP
}

func (b *float64Backend) Forward(x []float64, s *Scratch) []float64 {
	return forwardRow(b, x, s)
}

func (b *float64Backend) ForwardBatch(x *nn.Batch, s *Scratch) *nn.Batch {
	return b.m.ForwardBatch(x, &s.batch)
}

func (b *float64Backend) Describe() Description {
	return Description{
		Kind:       KindFloat64,
		In:         b.m.InputSize(),
		Out:        b.m.OutputSize(),
		Layers:     len(b.m.Layers),
		Params:     b.m.Params(),
		WeightBits: 64,
	}
}
