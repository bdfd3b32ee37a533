package serve

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/provenance"
)

// rowRef is the row-at-a-time observation the engine performed before it
// observed per chunk and kept one identity table, kept as the reference
// the equivalence test compares against: one ledger Observe, one clock
// read, one Record and one ObserveRecord per row, through the planes'
// single-row entry points, with the two per-identity maps of that
// engine — the feedback map and the monitor's last-level map — as
// test-local state. The sequence's 24 identities stay far below either
// map's bound, so the bounds are left out.
type rowRef struct {
	fb   map[int64]refPred // pending model-path predictions
	last map[int64]int32   // last level answered
}

// refPred is one key's pending prediction and the model that made it.
type refPred struct {
	pred  float64
	model *core.Model
}

func newRowRef() *rowRef {
	return &rowRef{fb: make(map[int64]refPred), last: make(map[int64]int32)}
}

// feedback resolves the previous prediction for a keyed row decided by
// the model serving now and retires or installs the key's entry.
func (ref *rowRef) feedback(m *core.Model, key int64, d Decision) (prev float64, ok bool) {
	ent, seen := ref.fb[key]
	if d.Reason == provenance.ReasonModel {
		ref.fb[key] = refPred{pred: d.PredInstr, model: m}
	} else if seen {
		delete(ref.fb, key)
	}
	return ent.pred, seen && ent.model == m
}

func (ref *rowRef) observe(e *Engine, rec *provenance.Record, row Request, d Decision, derived, logits []float64, start time.Time) {
	e.led.Observe(row.Cluster, rec.ModelGen, d.Level, row.Features, row.Preset)
	rec.GPU = row.GPU
	rec.Cluster = row.Cluster
	rec.Epoch = -1
	rec.Level = int32(d.Level)
	rec.Reason = d.Reason
	rec.Preset = row.Preset
	rec.EffPreset = row.Preset
	rec.PredInstr = d.PredInstr
	rec.PredErr, rec.HasPredErr = 0, false
	key := int64(uint32(row.GPU))<<32 | int64(uint32(row.Cluster))
	if e.fbOn && row.Cluster >= 0 && len(row.Features) > counters.IdxInstr {
		prev, ok := ref.feedback(e.Model(), key, d)
		if ok && prev > 0 {
			rec.PredErr = (prev - row.Features[counters.IdxInstr]) / prev
			rec.HasPredErr = true
		}
	}
	rec.PrevLevel, rec.HasPrevLevel = ref.last[key]
	ref.last[key] = rec.Level
	rec.LatencyNs = int64(time.Since(start))
	rec.SetRaw(row.Features)
	rec.SetDerived(derived)
	rec.SetLogits(logits)
	e.prov.Record(rec)
	e.mon.ObserveRecord(rec)
	if h := e.shadow.Load(); h != nil && d.Reason == provenance.ReasonModel {
		h.obs.ObserveServed(row, d)
	}
}

// obsRow is one answered row of the fixed observation sequence.
type obsRow struct {
	req             Request
	dec             Decision
	derived, logits []float64 // nil off the model path
}

// Where the fixed sequence misbehaves. Both stretches sit inside the
// 64-row chunk [960, 1024) of generation 1 (which starts at row 768, a
// multiple of 64), so with chunks of 64 each threshold is crossed upward
// and back downward within one observeRows call.
const (
	obsRows       = 2304
	obsGenRows    = 768 // rows per model generation
	badPredFrom   = 964
	badPredTo     = 984
	driftFrom     = 962
	driftTo       = 982
	obsMonWindow  = 12
	obsIdentities = 24
)

// obsSequence builds the fixed sequence: mixed reasons, keyed and unkeyed
// rows, instruction counters chosen so the realized prediction error is
// ~5 % except in the bad stretch, derived features near their training
// mean except in the drift stretch.
func obsSequence() []obsRow {
	rng := rand.New(rand.NewSource(14))
	lastPred := make(map[int]float64)
	seq := make([]obsRow, obsRows)
	for i := range seq {
		r := &seq[i]
		r.req = Request{Preset: 0.1 + 0.1*float64(i&1), Features: featureRow(rng), GPU: -1, Cluster: -1}
		key := -1
		if i%5 != 0 {
			key = i % obsIdentities
			r.req.GPU, r.req.Cluster = int32(key/8), int32(key%8)
		}
		if i%obsGenRows == 0 {
			clear(lastPred) // a swap breaks every chain
		}
		if prev, ok := lastPred[key]; ok {
			errFrac := 0.05 * (rng.Float64()*2 - 1)
			if i >= badPredFrom && i < badPredTo {
				errFrac = 0.9
			}
			r.req.Features[counters.IdxInstr] = prev * (1 - errFrac)
		}
		r.dec = Decision{Level: rng.Intn(6), PredInstr: 500 + 1000*rng.Float64(), Shard: -1}
		switch {
		case i%11 == 0:
			r.dec.Reason = provenance.ReasonRejected
			r.req.Features[3] = math.NaN()
		case i%17 == 0:
			r.dec.Reason = provenance.ReasonFallback
		case i%29 == 0:
			r.dec.Reason = provenance.ReasonDeadline
		case i%37 == 0:
			r.dec.Reason = provenance.ReasonPanic
		case i%41 == 0:
			r.dec.Reason = provenance.ReasonFallbackOnly
		}
		if i%43 == 0 {
			r.req.Features = r.req.Features[:5] // too short for the ledger to price
		}
		if r.dec.Reason != provenance.ReasonModel {
			delete(lastPred, key)
			continue
		}
		if key >= 0 {
			lastPred[key] = r.dec.PredInstr
		}
		r.derived = make([]float64, 5)
		for j := range r.derived {
			r.derived[j] = rng.NormFloat64() // testModel trains to mean 0, σ 1
			if i >= driftFrom && i < driftTo && j == 2 {
				r.derived[j] += 12
			}
		}
		r.logits = make([]float64, 6)
		for j := range r.logits {
			r.logits[j] = rng.NormFloat64()
		}
	}
	return seq
}

// servedLog is a ShadowObserver that keeps what it was shown.
type servedLog struct {
	clusters []int32
	preds    []float64
}

func (s *servedLog) ObserveServed(row Request, d Decision) {
	s.clusters = append(s.clusters, row.Cluster)
	s.preds = append(s.preds, d.PredInstr)
}

// obsOutcome is everything the planes show after the sequence.
type obsOutcome struct {
	ledgerJSON []byte
	drift      provenance.DriftState
	levels     []driftLevel // DriftState after each change; reference run only
	counters   map[string]int64
	gauges     map[string]float64
	records    []provenance.Record
	served     servedLog
}

// driftLevel is the reference run's DriftState as of one row, recorded
// whenever its thresholds' levels changed.
type driftLevel struct {
	row             int
	mapeHigh, drift bool
}

// armedEngine builds an engine with every observing plane on and a frozen
// ledger clock.
func armedEngine(t *testing.T, shadow ShadowObserver) *Engine {
	t.Helper()
	e, err := NewEngine(testModel(t, 1), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableProvenance(4096, provenance.MonitorOptions{Window: obsMonWindow})
	e.EnablePredFeedback()
	e.SetLedger(ledger.New(ledger.Options{
		Registry: e.Telemetry(),
		Now:      func() time.Time { return time.Unix(1_700_000_000, 0) },
	}))
	e.SetShadow(shadow)
	return e
}

// runObsSequence feeds seq to a fresh armed engine: chunk 0 row at a time
// through a rowRef, otherwise through observeRows in runs of chunk rows.
// Each generation is a real Swap, so the prediction chains and the drift
// reference reset where they would in service.
func runObsSequence(t *testing.T, seq []obsRow, chunk int) obsOutcome {
	t.Helper()
	var out obsOutcome
	e := armedEngine(t, &out.served)
	start := time.Now()
	ref := newRowRef()
	rows := make([]Request, len(seq))
	decs := make([]Decision, len(seq))
	for i := range seq {
		rows[i], decs[i] = seq[i].req, seq[i].dec
	}
	for lo := 0; lo < len(seq); lo += obsGenRows {
		gen := lo / obsGenRows
		if gen > 0 {
			m := testModel(t, 1)
			m.Lineage = core.Lineage{Generation: gen}
			if err := e.Swap(m); err != nil {
				t.Fatal(err)
			}
		}
		hi := lo + obsGenRows
		traceID := uint64(gen) * 77 // generation 0 is unsampled
		if chunk == 0 {
			rec := provenance.Record{TraceID: traceID, ModelGen: uint32(e.Generation())}
			for i := lo; i < hi; i++ {
				ref.observe(e, &rec, rows[i], decs[i], seq[i].derived, seq[i].logits, start)
				st := e.QualityMonitor().DriftState()
				lv := driftLevel{row: i, mapeHigh: st.MAPEHigh, drift: len(st.Drifting) > 0}
				if n := len(out.levels); n == 0 || out.levels[n-1].mapeHigh != lv.mapeHigh || out.levels[n-1].drift != lv.drift {
					out.levels = append(out.levels, lv)
				}
			}
			continue
		}
		for i := lo; i < hi; i += chunk {
			n := min(chunk, hi-i)
			sc := e.acquireScratch(e.Model(), n, traceID)
			for k := 0; k < n; k++ {
				sc.stageAux(k, seq[i+k].derived, seq[i+k].logits)
			}
			e.observeRows(sc, rows[i:i+n], decs[i:i+n], start)
		}
	}
	var buf bytes.Buffer
	if err := e.Ledger().Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.ledgerJSON = buf.Bytes()
	out.drift = e.QualityMonitor().DriftState()
	snap := e.Telemetry().Snapshot()
	out.counters, out.gauges = snap.Counters, snap.Gauges
	out.records = e.FlightRecorder().Snapshot(nil)
	for i := range out.records {
		// The latency stamp is a clock read; the array tails past Num* are
		// whatever the scratch record held before.
		r := &out.records[i]
		r.LatencyNs = 0
		clear(r.Raw[r.NumRaw:])
		clear(r.Derived[r.NumDerived:])
		clear(r.Logits[r.NumLogits:])
	}
	return out
}

// TestObservePerChunkEqualsPerRow is the "batched means same numbers"
// guard: the fixed sequence observed row at a time through the planes'
// single-row entry points and observed in chunks of 1, 7 and 64 leaves
// every plane in the same state.
func TestObservePerChunkEqualsPerRow(t *testing.T) {
	seq := obsSequence()
	want := runObsSequence(t, seq, 0)

	// The sequence must exercise what it claims to: read row at a time,
	// DriftState starts clear, shows both thresholds high after the
	// crossing rows and clear again after recovery, and every change of
	// level falls in the one 64-row chunk [960, 1024).
	var mapeSeen, driftSeen bool
	for i, lv := range want.levels {
		mapeSeen = mapeSeen || lv.mapeHigh
		driftSeen = driftSeen || lv.drift
		if i > 0 && (lv.row < 960 || lv.row >= 1024) {
			t.Fatalf("drift state changed at row %d, outside the one 64-row chunk [960, 1024): %+v", lv.row, want.levels)
		}
	}
	if last := want.levels[len(want.levels)-1]; !mapeSeen || !driftSeen || last.mapeHigh || last.drift || want.drift.Any() {
		t.Fatalf("sequence does not cross both thresholds both ways: %+v, final %+v", want.levels, want.drift)
	}
	if first := want.levels[0]; first.mapeHigh || first.drift {
		t.Fatalf("drift state high from the first row: %+v", want.levels)
	}
	snap, err := ledger.ReadSnapshot(bytes.NewReader(want.ledgerJSON))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Skipped == 0 || len(snap.Groups) < 3+6+8 {
		t.Fatalf("ledger reference is missing skipped rows or groups: %+v", snap)
	}
	for _, g := range []string{"gen=0", "gen=1", "gen=2"} {
		if snap.Groups[g].Decisions == 0 {
			t.Fatalf("no decisions attributed to %s", g)
		}
	}
	if len(want.records) != obsRows || len(want.served.preds) == 0 || want.drift.ErrSamples == 0 {
		t.Fatalf("reference run is thin: %d records, %d shadowed, %d error samples",
			len(want.records), len(want.served.preds), want.drift.ErrSamples)
	}

	for _, chunk := range []int{1, 7, 64} {
		got := runObsSequence(t, seq, chunk)
		if !bytes.Equal(got.ledgerJSON, want.ledgerJSON) {
			t.Errorf("chunk %d: ledger snapshot differs:\n got %s\nwant %s", chunk, got.ledgerJSON, want.ledgerJSON)
		}
		if !reflect.DeepEqual(got.drift, want.drift) {
			t.Errorf("chunk %d: drift state %+v, want %+v", chunk, got.drift, want.drift)
		}
		if !reflect.DeepEqual(got.counters, want.counters) {
			t.Errorf("chunk %d: counters\n got %v\nwant %v", chunk, got.counters, want.counters)
		}
		if !reflect.DeepEqual(got.gauges, want.gauges) {
			t.Errorf("chunk %d: gauges\n got %v\nwant %v", chunk, got.gauges, want.gauges)
		}
		if !reflect.DeepEqual(got.served, want.served) {
			t.Errorf("chunk %d: shadow observer saw a different stream", chunk)
		}
		if len(got.records) != len(want.records) {
			t.Fatalf("chunk %d: %d records, want %d", chunk, len(got.records), len(want.records))
		}
		for i := range want.records {
			g, w := got.records[i], want.records[i]
			// NaN features (the rejected rows) defeat ==; compare them as bits.
			for j := range g.Raw {
				if math.Float64bits(g.Raw[j]) != math.Float64bits(w.Raw[j]) {
					t.Fatalf("chunk %d: record %d raw[%d] = %v, want %v", chunk, i, j, g.Raw[j], w.Raw[j])
				}
			}
			g.Raw, w.Raw = [counters.Num]float64{}, [counters.Num]float64{}
			if g != w {
				t.Fatalf("chunk %d: record %d\n got %+v\nwant %+v", chunk, i, g, w)
			}
		}
	}
}

// TestDecideBatchSameWithPlanesArmed: arming the planes changes what is
// observed, never what is decided, at any frame size.
func TestDecideBatchSameWithPlanesArmed(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	rows := make([]Request, 1000)
	for i := range rows {
		rows[i] = Request{Preset: 0.1 + 0.1*float64(i&1), Features: featureRow(rng), GPU: int32(i % 3), Cluster: int32(i % 8)}
		if i%13 == 0 {
			rows[i].Features[7] = math.Inf(1)
		}
		if i%9 == 0 {
			rows[i].GPU, rows[i].Cluster = -1, -1
		}
	}
	plain, err := NewEngine(testModel(t, 1), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := plain.DecideBatch(rows, nil)
	for _, frame := range []int{1, 7, 64, len(rows)} {
		e := armedEngine(t, &servedLog{})
		var got []Decision
		for i := 0; i < len(rows); i += frame {
			got = e.DecideBatch(rows[i:min(i+frame, len(rows))], got)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frames of %d: armed engine decided differently", frame)
		}
		if n := e.Ledger().Snapshot().Decisions; n != int64(len(rows)) {
			t.Fatalf("frames of %d: ledger saw %d decisions, want %d", frame, n, len(rows))
		}
		if n := len(e.FlightRecorder().Snapshot(nil)); n != len(rows) {
			t.Fatalf("frames of %d: recorder holds %d records, want %d", frame, n, len(rows))
		}
	}
}

// TestObserveWalksStagedRows: rows a recovered panic left answered and
// unstaged are staged by the fallback row after them, with its latency
// and not one a previous batch left in their records, and rows answered
// but never staged reach no plane.
func TestObserveWalksStagedRows(t *testing.T) {
	var served servedLog
	e := armedEngine(t, &served)
	rng := rand.New(rand.NewSource(16))
	rows := make([]Request, 10)
	decs := make([]Decision, len(rows))
	for i := range rows {
		rows[i] = Request{Preset: 0.1, Features: featureRow(rng), GPU: 0, Cluster: int32(i)}
		decs[i] = Decision{Level: 1, Reason: provenance.ReasonModel, PredInstr: 1000, Shard: -1}
	}
	sc := e.acquireScratch(e.Model(), len(rows), 0)
	for k := range rows {
		sc.recs[k].LatencyNs = 42 // what a previous batch left
		sc.stageAux(k, nil, nil)
	}
	now := time.Now()
	sc.stageRun(3, now.Add(-2*time.Hour))
	// Rows 3, 4 and 5 were answered by a run that panicked before staging;
	// row 6 is the fallback row after it. Rows 7, 8 and 9 are never staged.
	sc.stageRun(7, now.Add(-time.Hour))
	sc.rows, sc.decs = rows, decs
	e.observe(sc)

	want := []int32{0, 1, 2, 3, 4, 5, 6}
	var got []int32
	for _, r := range e.FlightRecorder().Snapshot(nil) {
		got = append(got, r.Cluster)
		if lat := time.Duration(r.LatencyNs); (r.Cluster < 3) != (lat >= 2*time.Hour) || lat < time.Hour {
			t.Fatalf("record of cluster %d carries latency %v, not its stage's", r.Cluster, lat)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recorder holds clusters %v, want %v", got, want)
	}
	if !reflect.DeepEqual(served.clusters, want) {
		t.Fatalf("shadow observer saw clusters %v, want %v", served.clusters, want)
	}
	if n := e.Ledger().Snapshot().Decisions; n != int64(len(want)) {
		t.Fatalf("ledger saw %d decisions, want %d", n, len(want))
	}
}

// armAll arms an engine the way `ssmdvfsd -flightrec 16384 -ledger`
// with prediction feedback arms it.
func armAll(e *Engine) {
	armRecorder(e)
	armLedger(e)
}

// armRecorder arms the flight recorder, the drift monitor and prediction
// feedback.
func armRecorder(e *Engine) {
	e.EnableProvenance(16384, provenance.MonitorOptions{})
	e.EnablePredFeedback()
}

// armLedger arms the efficiency ledger on the engine's registry.
func armLedger(e *Engine) { e.SetLedger(ledger.New(ledger.Options{Registry: e.Telemetry()})) }

// armedFrames builds an engine armed by arm, and 64 keyed 64-row frames
// that cycle through 4096 (GPU, cluster) identities. Every frame is
// served once before returning, so the identity table, the ledger's groups
// and the pools are in steady state.
func armedFrames(tb testing.TB, arm func(*Engine)) (*Engine, [][]Request) {
	tb.Helper()
	e, err := NewEngine(testModel(tb, 14), Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	arm(e)
	rng := rand.New(rand.NewSource(14))
	frames := make([][]Request, 64)
	decs := make([]Decision, 0, 64)
	for f := range frames {
		frames[f] = make([]Request, 64)
		for k := range frames[f] {
			id := f*64 + k
			frames[f][k] = Request{Preset: 0.1, Features: featureRow(rng), GPU: int32(id / 32), Cluster: int32(id % 32)}
		}
		decs = e.DecideBatch(frames[f], decs[:0])
	}
	return e, frames
}

// TestPlanesArmedZeroAlloc is the armed-path twin of the disabled-path
// guards: with the ledger alone, the flight recorder (with drift monitor
// and feedback) alone, or every plane on, a served frame still allocates
// nothing, and each armed plane counts every decision.
func TestPlanesArmedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race (sync.Pool bypasses its caches)")
	}
	for _, tc := range []struct {
		name string
		arm  func(*Engine)
	}{{"ledger", armLedger}, {"flightrec", armRecorder}, {"all", armAll}} {
		t.Run(tc.name, func(t *testing.T) {
			e, frames := armedFrames(t, tc.arm)
			decs := make([]Decision, 0, 64)
			i := 0
			allocs := testing.AllocsPerRun(256, func() {
				decs = e.DecideBatch(frames[i%len(frames)], decs[:0])
				i++
			})
			if allocs != 0 {
				t.Fatalf("DecideBatch allocates %.2f objects per 64-row frame, want 0", allocs)
			}
			want := int64(64 * (64 + i))
			if e.Ledger() != nil {
				if got := e.Ledger().Snapshot().Decisions; got != want {
					t.Fatalf("ledger saw %d decisions, want %d", got, want)
				}
			}
			if e.FlightRecorder() != nil {
				if got := int64(e.FlightRecorder().Head()); got != want {
					t.Fatalf("recorder took %d records, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkDecide_PlanesArmed is what a decision costs with the planes
// switched on (compare BenchmarkDecide_LedgerDisabled): 64-row keyed
// frames over 4096 identities. CI runs it with -benchmem and fails on a
// non-zero allocs/op.
func BenchmarkDecide_PlanesArmed(b *testing.B) {
	e, frames := armedFrames(b, armAll)
	decs := make([]Decision, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decs = e.DecideBatch(frames[i%len(frames)], decs[:0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/row")
}
