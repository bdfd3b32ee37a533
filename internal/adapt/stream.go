// Package adapt closes the paper's self-calibration loop online: it
// turns the decision flight recorder into a training stream, re-fits the
// Calibrator when the quality monitor reports drift, scores the
// candidate in shadow mode on live traffic, promotes it through a canary
// window, and automatically rolls back to the retained incumbent when
// the promoted model regresses. The controller never blocks the decision
// path: it polls the recorder, grades the shadow candidate on the pairs
// that walk completes, and every model change goes through the engine's
// validated hot-swap gate.
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
// realization: its inputs, the level that served and the instruction
// prediction that served with it.
type pendingPred struct {
	raw    [counters.Num]float64
	preset float64
	level  float64
	pred   float64
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
// visit, when non-nil, sees each new record (the canary's accounting, so
// the ring is walked once per step); pair, when non-nil, each pair the
// walk completes: a pending decision and the instruction count its key's
// next record realized (shadow scoring). Returns how many records were
// consumed.
func (b *streamBuilder) Scan(rec *provenance.Recorder, visit func(*provenance.Record), pair func(*pendingPred, float64)) int {
	if rec == nil {
		return 0
	}
	// Head is read first: every record at or below floor was overwritten
	// before the snapshot began.
	var floor uint64
	if h, n := rec.Head(), uint64(rec.Cap()); h > n {
		floor = h - n
	}
	b.scratch = rec.Snapshot(b.scratch[:0])
	return b.scanRecords(b.scratch, floor, visit, pair)
}

// scanRecords consumes recs, a snapshot oldest first, in Seq order from
// the watermark, so no record is skipped and no pair spans a lost one.
// Records up to floor are gone from the ring: if the watermark is below
// it, every pending decision lost its next epoch, so all are dropped and
// the walk resumes at floor+1. A Seq missing above that is a write that
// has not landed yet: the walk stops there and the next call resumes.
func (b *streamBuilder) scanRecords(recs []provenance.Record, floor uint64, visit func(*provenance.Record), pair func(*pendingPred, float64)) int {
	if b.lastSeq < floor {
		clear(b.pending)
		b.lastSeq = floor
	}
	seen := 0
	for i := range recs {
		r := &recs[i]
		if r.Seq <= b.lastSeq {
			continue
		}
		if r.Seq != b.lastSeq+1 {
			break
		}
		b.lastSeq = r.Seq
		seen++
		if visit != nil {
			visit(r)
		}
		b.fold(r, pair)
	}
	return seen
}

// fold pairs one record with the key's pending prediction, if any, and
// leaves the record pending when it is a model decision with full
// features. A degraded record completes its key's pair and then breaks
// the chain.
func (b *streamBuilder) fold(r *provenance.Record, pair func(*pendingPred, float64)) {
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
				if pair != nil {
					pair(p, target)
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
		p.pred = r.PredInstr
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
