// Package adapt closes the paper's self-calibration loop online: it
// turns the decision flight recorder into a training stream, re-fits the
// Calibrator when the quality monitor reports drift, scores the
// candidate in shadow mode on live traffic, promotes it through a canary
// window, and automatically rolls back to the retained incumbent when
// the promoted model regresses. The controller never blocks the decision
// path: it polls the recorder, shadow scoring rides a bounded queue, and
// every model change goes through the engine's validated hot-swap gate.
package adapt

import (
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/provenance"
)

// streamRow is one (input, target) training pair harvested from live
// traffic: the full counter vector, preset and served level of epoch N,
// labelled with the realized instruction count epoch N+1 reported for
// the same (GPU, cluster) key.
type streamRow struct {
	raw    [counters.Num]float64
	preset float64
	level  float64
	target float64
}

// pendingPred is a model-path decision waiting for its next-epoch
// realization.
type pendingPred struct {
	raw    [counters.Num]float64
	preset float64
	level  float64
}

// maxPendingKeys bounds the pending predictions, one per (GPU, cluster)
// seen, against a stream that cycles through unbounded identities.
const maxPendingKeys = 1 << 16

// streamBuilder incrementally converts flight-recorder records into
// training pairs. It tracks the recorder sequence it has consumed so
// each Scan call only folds new records, and pairs consecutive
// model-path records per (GPU, cluster) key, the key the engine's
// prediction feedback and the quality monitor use: the instruction
// counter of a key's next record is the realized target for its
// previous record's inputs. Rows accumulate into a bounded ring (newest
// win), so a long monitoring phase cannot grow memory without bound.
type streamBuilder struct {
	lastSeq uint64
	pending map[int64]*pendingPred
	rows    []streamRow
	pos     int
	n       int
	scratch []provenance.Record
}

func newStreamBuilder(capRows int) *streamBuilder {
	return &streamBuilder{
		pending: make(map[int64]*pendingPred, 64),
		rows:    make([]streamRow, capRows),
	}
}

// Scan folds every record the recorder gained since the previous call.
// visit, when non-nil, is called for each new record (the controller's
// canary accounting rides along so the ring is walked once per step).
// Returns how many new records were seen.
func (b *streamBuilder) Scan(rec *provenance.Recorder, visit func(*provenance.Record)) int {
	if rec == nil {
		return 0
	}
	b.scratch = rec.Snapshot(b.scratch[:0])
	seen := 0
	for i := range b.scratch {
		r := &b.scratch[i]
		if r.Seq <= b.lastSeq {
			continue
		}
		b.lastSeq = r.Seq
		seen++
		if visit != nil {
			visit(r)
		}
		b.fold(r)
	}
	return seen
}

// fold pairs one record with the key's pending prediction, if any, and
// leaves the record pending when it is a model decision with full
// features.
func (b *streamBuilder) fold(r *provenance.Record) {
	if r.Cluster < 0 {
		return // unkeyed rows carry no epoch continuity
	}
	key := int64(uint32(r.GPU))<<32 | int64(uint32(r.Cluster))
	if p, ok := b.pending[key]; ok {
		if int(r.NumRaw) > counters.IdxInstr {
			if target := r.Raw[counters.IdxInstr]; target > 0 {
				row := &b.rows[b.pos]
				row.raw = p.raw
				row.preset = p.preset
				row.level = p.level
				row.target = target
				b.pos = (b.pos + 1) % len(b.rows)
				if b.n < len(b.rows) {
					b.n++
				}
			}
		}
		if r.Reason != provenance.ReasonModel {
			delete(b.pending, key)
			return
		}
	}
	if r.Reason == provenance.ReasonModel && int(r.NumRaw) >= counters.Num {
		p := b.pending[key]
		if p == nil {
			if len(b.pending) >= maxPendingKeys {
				clear(b.pending) // identity churn past any real fleet: start over
			}
			p = &pendingPred{}
			b.pending[key] = p
		}
		copy(p.raw[:], r.Raw[:counters.Num])
		p.preset = r.Preset
		p.level = float64(r.Level)
	}
}

// Len returns how many training pairs are currently retained.
func (b *streamBuilder) Len() int { return b.n }

// Reset drops the retained pairs and pending predictions (the consumed
// sequence watermark is kept, so already-used traffic is not re-learned
// by the next cycle).
func (b *streamBuilder) Reset() {
	b.n, b.pos = 0, 0
	clear(b.pending)
}

// Build materializes the Calibrator training set for a model selecting
// featureIdx: X rows are [selected features..., preset, level], y the
// realized next-epoch instruction counts.
func (b *streamBuilder) Build(featureIdx []int) (rows [][]float64, targets []float64) {
	start := b.pos - b.n
	if start < 0 {
		start += len(b.rows)
	}
	rows = make([][]float64, 0, b.n)
	targets = make([]float64, 0, b.n)
	for i := 0; i < b.n; i++ {
		sr := &b.rows[(start+i)%len(b.rows)]
		x := make([]float64, 0, len(featureIdx)+2)
		for _, idx := range featureIdx {
			x = append(x, sr.raw[idx])
		}
		x = append(x, sr.preset, sr.level)
		rows = append(rows, x)
		targets = append(targets, sr.target)
	}
	return rows, targets
}
