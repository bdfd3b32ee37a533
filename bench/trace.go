package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ssmdvfs/internal/atomicfile"
	"ssmdvfs/internal/telemetry"
)

// spanRecorder keeps the spans of a traced run in memory; they are
// written out once, when the run ends. The spans come from the
// benchmark's own files, around its calls into each layer — the program
// under test is not instrumented for it.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []telemetry.SpanRecord
	ids   uint64
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// newID hands out span and frame identifiers.
func (r *spanRecorder) newID() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ids++
	return r.ids
}

// add records one finished span. frame is the identifier every span of one
// sampled frame shares (0 for spans that belong to no frame); parent is
// the span that caused this one (0 for a root).
func (r *spanRecorder) add(name, layer string, tid int, frame, id, parent uint64, start, end time.Time, attrs map[string]string) {
	sp := telemetry.SpanRecord{
		Name: name, Cat: layer, TID: tid,
		SpanID:  telemetry.FormatTraceID(id),
		StartUs: float64(start.Sub(r.epoch)) / 1e3,
		DurUs:   float64(end.Sub(start)) / 1e3,
		Attrs:   attrs,
	}
	if frame != 0 {
		sp.TraceID = telemetry.FormatTraceID(frame)
	}
	if parent != 0 {
		sp.ParentID = telemetry.FormatTraceID(parent)
	}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// programTracer returns a tracer for the options of RunFig4 and RunSuite
// that already take one (one span per grid cell / kernel, on the worker
// that ran it) and a function that moves what it recorded into r.
func (r *spanRecorder) programTracer() (*telemetry.Tracer, func() error) {
	var buf bytes.Buffer
	offsetUs := float64(time.Since(r.epoch)) / 1e3
	tr := telemetry.NewTracer(&buf)
	return tr, func() error {
		if err := tr.Flush(); err != nil {
			return err
		}
		spans, err := telemetry.ReadSpans(&buf)
		if err != nil {
			return err
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, sp := range spans {
			sp.StartUs += offsetUs
			r.spans = append(r.spans, sp)
		}
		return nil
	}
}

// durations returns, by span name, the durations recorded in µs.
func (r *spanRecorder) durations() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]float64{}
	for _, sp := range r.spans {
		out[sp.Name] = append(out[sp.Name], sp.DurUs)
	}
	return out
}

// write stores the spans as a Chrome trace-event file.
func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return atomicfile.Write(path, func(w io.Writer) error {
		return telemetry.WriteChromeTrace(w, r.spans)
	})
}

// ladderRow is one rung of the layer ladder as the result file shows it:
// the time one frame spends at or below the layer, the same per row, and
// the layer's own share (its rung minus the rung below; for the transport
// and the router, the residual of the measured round trip).
type ladderRow struct {
	Layer     string  `json:"layer"`
	Backend   string  `json:"backend"`
	Batch     int     `json:"batch"`
	Source    string  `json:"source"` // "loop": timed loops; "trace": medians of the sampled frames' replay spans
	UsPerOp   float64 `json:"us_per_frame"`
	NsPerRow  float64 `json:"ns_per_row"`
	SelfNsRow float64 `json:"self_ns_per_row"`
}

// buildLadder stacks cumulative per-frame times (ns), bottom rung first.
func buildLadder(backend, source string, batch int, layers []string, cumNs []float64) []ladderRow {
	rows := make([]ladderRow, len(layers))
	below := 0.0
	for i := range layers {
		rows[i] = ladderRow{
			Layer: layers[i], Backend: backend, Batch: batch, Source: source,
			UsPerOp:   cumNs[i] / 1e3,
			NsPerRow:  cumNs[i] / float64(batch),
			SelfNsRow: (cumNs[i] - below) / float64(batch),
		}
		below = cumNs[i]
	}
	return rows
}

// checkLadder reports the first rung that costs less than the rung below
// it, which would mean the rungs do not nest as the ladder claims.
func checkLadder(rows []ladderRow) error {
	for _, r := range rows {
		if r.SelfNsRow < 0 {
			return fmt.Errorf("ladder not monotone at %s (%s, batch %d, %s): self time %.1f ns/row",
				r.Layer, r.Backend, r.Batch, r.Source, r.SelfNsRow)
		}
	}
	return nil
}
