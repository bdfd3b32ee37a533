package ledger

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"ssmdvfs/internal/baselines"
	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/datagen"
	"ssmdvfs/internal/power"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// computeRow builds a full-width counter row for a compute-bound epoch:
// every issue opportunity retires an instruction, no memory stalls.
func computeRow(cycles float64) []float64 {
	row := make([]float64, counters.Num)
	row[counters.IdxInstr] = cycles
	row[counters.IdxMH] = 0
	row[counters.IdxMHNL] = 0
	i, _ := counters.Index("cycles")
	row[i] = cycles
	i, _ = counters.Index("op_ialu")
	row[i] = cycles * 0.6
	i, _ = counters.Index("op_falu")
	row[i] = cycles * 0.4
	return row
}

// memRow builds a row for a memory-bound epoch: issue slots dominated by
// memory-hazard stalls, heavy DRAM traffic.
func memRow(cycles float64) []float64 {
	row := make([]float64, counters.Num)
	row[counters.IdxInstr] = cycles * 0.05
	row[counters.IdxMH] = cycles * 0.9
	row[counters.IdxMHNL] = cycles * 0.05
	i, _ := counters.Index("cycles")
	row[i] = cycles
	i, _ = counters.Index("op_ldg")
	row[i] = cycles * 0.04
	i, _ = counters.Index("l1_read_misses")
	row[i] = cycles * 0.04
	i, _ = counters.Index("l2_accesses")
	row[i] = cycles * 0.04
	i, _ = counters.Index("dram_lines")
	row[i] = cycles * 0.03
	return row
}

func TestMeterAccountComputeBound(t *testing.T) {
	m := NewMeter()
	table := clockdomain.TitanX()
	def := table.Default()

	// At the default (fastest) level the counterfactual is the decision:
	// no loss, no savings.
	a := m.Account(computeRow(1e6), def)
	if !a.OK {
		t.Fatal("full-width row not accounted")
	}
	if a.PerfLoss != 0 {
		t.Fatalf("PerfLoss at default level = %v, want 0", a.PerfLoss)
	}
	if a.SavedPJ() != 0 {
		t.Fatalf("SavedPJ at default level = %v, want 0", a.SavedPJ())
	}

	// A compute-bound epoch slowed to level 0 dilates by ~fmax/f.
	a0 := m.Account(computeRow(1e6), 0)
	fmax := table.Point(def).FrequencyHz
	f0 := table.Point(0).FrequencyHz
	wantLoss := fmax/f0 - 1
	if math.Abs(a0.PerfLoss-wantLoss) > 1e-9 {
		t.Fatalf("compute-bound PerfLoss = %v, want %v", a0.PerfLoss, wantLoss)
	}
	if a0.EnergyMaxPJ <= 0 || a0.EnergyPJ <= 0 {
		t.Fatalf("energies not positive: %+v", a0)
	}
}

func TestMeterAccountMemoryBoundSaves(t *testing.T) {
	m := NewMeter()
	a := m.Account(memRow(1e6), 0)
	if !a.OK {
		t.Fatal("row not accounted")
	}
	// Memory-bound: high sensitivity, so little dilation...
	if a.PerfLoss > 0.2 {
		t.Fatalf("memory-bound PerfLoss = %v, want small", a.PerfLoss)
	}
	// ...and lowering V/f on a nearly-unchanged runtime saves energy.
	if a.SavedPJ() <= 0 {
		t.Fatalf("memory-bound SavedPJ = %v, want > 0", a.SavedPJ())
	}
}

func TestMeterAccountRejectsShortRow(t *testing.T) {
	m := NewMeter()
	if a := m.Account(make([]float64, 5), 0); a.OK {
		t.Fatal("short row accounted")
	}
	if a := m.Account(nil, 0); a.OK {
		t.Fatal("nil row accounted")
	}
}

func TestMeterAccountGarbageRowDefaultsEpoch(t *testing.T) {
	m := NewMeter()
	row := make([]float64, counters.Num)
	for i := range row {
		row[i] = math.NaN()
	}
	a := m.Account(row, 0)
	if !a.OK {
		t.Fatal("NaN row should account as an idle epoch, not fail")
	}
	if math.IsNaN(a.EnergyPJ) || math.IsNaN(a.PerfLoss) {
		t.Fatalf("NaN leaked into attribution: %+v", a)
	}
}

func fakeClock(start time.Time, step time.Duration) func() time.Time {
	t := start
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func testLedger(seedOffset int64) *Ledger {
	return New(Options{
		Window: time.Second,
		Now:    fakeClock(time.Unix(1000+seedOffset, 0), 100*time.Millisecond),
	})
}

func feed(l *Ledger, n int, cluster int32, gen uint32) {
	for i := 0; i < n; i++ {
		row := computeRow(1e6)
		if i%2 == 0 {
			row = memRow(1e6)
		}
		l.Observe(cluster, gen, i%3, row, 0.1)
	}
}

func TestLedgerObserveAndSnapshot(t *testing.T) {
	l := testLedger(0)
	feed(l, 30, 7, 2)
	l.Observe(7, 2, 0, []float64{1, 2}, 0.1) // short row → skipped

	s := l.Snapshot()
	if s.Decisions != 30 {
		t.Fatalf("Decisions = %d, want 30", s.Decisions)
	}
	if s.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1", s.Skipped)
	}
	if s.EnergyMaxPJ <= 0 || s.EnergyPJ <= 0 {
		t.Fatalf("energy totals not positive: %+v", s)
	}
	if s.SavedPJ() <= 0 {
		t.Fatalf("SavedPJ = %d, want > 0 (half the rows are memory-bound)", s.SavedPJ())
	}
	if s.Groups["cluster=7"].Decisions != 30 {
		t.Fatalf("cluster group = %+v", s.Groups["cluster=7"])
	}
	if s.Groups["gen=2"].Decisions != 30 {
		t.Fatalf("gen group = %+v", s.Groups["gen=2"])
	}
	var levelDecisions int64
	for _, k := range []string{"level=0", "level=1", "level=2"} {
		levelDecisions += s.Groups[k].Decisions
	}
	if levelDecisions != 30 {
		t.Fatalf("level groups sum to %d, want 30", levelDecisions)
	}
	if len(s.SavedRing) == 0 || len(s.LossRing) == 0 || len(s.PresetRing) == 0 {
		t.Fatalf("rings empty: %+v", s)
	}
	if s.BudgetBurn() <= 0 {
		t.Fatalf("BudgetBurn = %v, want > 0", s.BudgetBurn())
	}
	if s.MeanPreset() < 0.099 || s.MeanPreset() > 0.101 {
		t.Fatalf("MeanPreset = %v, want ~0.1", s.MeanPreset())
	}
}

func TestNilLedgerIsNoOp(t *testing.T) {
	var l *Ledger
	l.Observe(0, 0, 0, computeRow(1e6), 0.1)
	if s := l.Snapshot(); s.Decisions != 0 {
		t.Fatalf("nil ledger snapshot = %+v", s)
	}
	_ = l.Meter()
}

// TestMergePermutationByteIdentical pins the fleet aggregation contract:
// merging replica snapshots in any order serializes to identical bytes.
func TestMergePermutationByteIdentical(t *testing.T) {
	snaps := make([]Snapshot, 3)
	for i := range snaps {
		l := testLedger(int64(i) * 3)
		feed(l, 20+10*i, int32(i), uint32(i))
		snaps[i] = l.Snapshot()
	}
	render := func(order []int) []byte {
		parts := make([]Snapshot, len(order))
		for i, j := range order {
			parts[i] = snaps[j]
		}
		var buf bytes.Buffer
		if err := Merge(parts...).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := render([]int{0, 1, 2})
	for _, order := range [][]int{{2, 1, 0}, {1, 0, 2}, {2, 0, 1}, {0, 2, 1}, {1, 2, 0}} {
		if got := render(order); !bytes.Equal(got, want) {
			t.Fatalf("order %v merged to different bytes:\n%s\nvs\n%s", order, got, want)
		}
	}

	merged := Merge(snaps...)
	var wantDecisions int64
	for _, s := range snaps {
		wantDecisions += s.Decisions
	}
	if merged.Decisions != wantDecisions {
		t.Fatalf("merged Decisions = %d, want %d", merged.Decisions, wantDecisions)
	}
	if merged.SavedHist.Count != wantDecisions {
		t.Fatalf("merged SavedHist.Count = %d, want %d", merged.SavedHist.Count, wantDecisions)
	}
}

func TestMergeIsAssociative(t *testing.T) {
	snaps := make([]Snapshot, 3)
	for i := range snaps {
		l := testLedger(int64(i) * 5)
		feed(l, 15, int32(i), 0)
		snaps[i] = l.Snapshot()
	}
	left, _ := json.Marshal(Merge(Merge(snaps[0], snaps[1]), snaps[2]))
	right, _ := json.Marshal(Merge(snaps[0], Merge(snaps[1], snaps[2])))
	if !bytes.Equal(left, right) {
		t.Fatalf("merge not associative:\n%s\nvs\n%s", left, right)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	l := testLedger(0)
	feed(l, 25, 3, 1)
	s := l.Snapshot()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var rt bytes.Buffer
	if err := got.WriteJSON(&rt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), rt.Bytes()) {
		t.Fatal("snapshot did not round-trip byte-identically")
	}
}

// TestReplayMatchesOnline pins the tentpole invariant: replaying a
// flight-recorder dump through ReplayRecords reproduces the online
// ledger's integer totals exactly — they are the same arithmetic.
func TestReplayMatchesOnline(t *testing.T) {
	l := testLedger(0)
	var recs []provenance.Record
	for i := 0; i < 40; i++ {
		row := computeRow(5e5 + float64(i)*1e4)
		if i%3 == 0 {
			row = memRow(5e5 + float64(i)*1e4)
		}
		level := i % 4
		l.Observe(int32(i%2), 1, level, row, 0.05)
		var r provenance.Record
		r.Cluster = int32(i % 2)
		r.ModelGen = 1
		r.Level = int32(level)
		r.Preset = 0.05
		r.SetRaw(row)
		recs = append(recs, r)
	}
	online := l.Snapshot()
	replay := ReplayRecords(recs)

	if online.Decisions != replay.Decisions {
		t.Fatalf("decisions: online %d, replay %d", online.Decisions, replay.Decisions)
	}
	if online.EnergyMaxPJ != replay.EnergyMaxPJ {
		t.Fatalf("energy_max_pj: online %d, replay %d", online.EnergyMaxPJ, replay.EnergyMaxPJ)
	}
	if online.EnergyPJ != replay.EnergyPJ {
		t.Fatalf("energy_pj: online %d, replay %d", online.EnergyPJ, replay.EnergyPJ)
	}
	if online.PerfLossPpmSum != replay.PerfLossPpmSum {
		t.Fatalf("perf_loss_ppm: online %d, replay %d", online.PerfLossPpmSum, replay.PerfLossPpmSum)
	}
	for _, k := range []string{"level=0", "level=3", "cluster=0", "cluster=1", "gen=1"} {
		if online.Groups[k] != replay.Groups[k] {
			t.Fatalf("group %s: online %+v, replay %+v", k, online.Groups[k], replay.Groups[k])
		}
	}
}

func TestLedgerPublishesRegistrySeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	l := New(Options{Registry: reg, Now: fakeClock(time.Unix(0, 0), time.Millisecond)})
	feed(l, 20, 0, 0)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"ledger_decisions_total", "ledger_energy_max_pj_total",
		"ledger_energy_pj_total", "ledger_energy_saved_ratio",
		"ledger_budget_burn", "ledger_decision_saved_pj",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Fatalf("exposition missing %s:\n%s", name, out)
		}
	}
	if errs := telemetry.LintProm(bytes.NewReader(buf.Bytes())); len(errs) != 0 {
		t.Fatalf("ledger exposition fails promlint: %v", errs)
	}
}

func TestFormatEnergyPJ(t *testing.T) {
	cases := map[float64]string{
		5:      "5 pJ",
		2500:   "2.5 nJ",
		3.2e6:  "3.2 µJ",
		4.5e9:  "4.5 mJ",
		1.2e12: "1.2 J",
	}
	for in, want := range cases {
		if got := FormatEnergyPJ(in); got != want {
			t.Fatalf("FormatEnergyPJ(%v) = %q, want %q", in, got, want)
		}
	}
}

// accountDirect is Meter.Account with leakage computed by the power model
// on every call (power.Model.EpochEnergyPJ, two math.Pow a row) — the
// formula the meter's per-level table must reproduce bit for bit.
func accountDirect(table *clockdomain.Table, pm power.Model, features []float64, level int) Attribution {
	level = table.Clamp(level)
	opMax := table.Point(table.Default())
	opL := table.Point(level)
	var act power.Activity
	for op, fi := range opFeature {
		act.OpCounts[op] = count(features[fi])
	}
	act.L1Accesses = count(features[counters.IdxL1CRM]) + count(features[idxL1Hits]) + count(features[idxL1Writes])
	act.L2Accesses = count(features[idxL2])
	act.DRAMLines = count(features[idxDRAM])
	act.Cycles = count(features[idxCycles])
	durMax := act.Cycles * opMax.PeriodPs()
	if durMax <= 0 {
		durMax = DefaultEpochPs
		act.Cycles = durMax / opMax.PeriodPs()
	}
	energyMax := pm.EpochEnergyPJ(act, opMax, durMax)
	s := baselines.RowSensitivity(features)
	slowdown := (1-s)*(opMax.FrequencyHz/opL.FrequencyHz) + s
	durL := int64(float64(durMax) * slowdown)
	actL := act
	actL.Cycles = durL / opL.PeriodPs()
	return Attribution{EnergyMaxPJ: energyMax, EnergyPJ: pm.EpochEnergyPJ(actL, opL, durL), PerfLoss: slowdown - 1, OK: true}
}

// TestMeterLevelTableBitIdentical: pricing with the per-level leakage
// table equals the direct formula to the last bit, at every level of the
// TitanX table, on every row of the committed dataset.
func TestMeterLevelTableBitIdentical(t *testing.T) {
	ds, err := datagen.LoadFile("../../testdata/bench-cache/dataset.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Samples) == 0 {
		t.Fatal("committed dataset is empty")
	}
	m := NewMeter()
	table, pm := clockdomain.TitanX(), power.Default()
	for i, s := range ds.Samples {
		for level := 0; level < table.Len(); level++ {
			got, want := m.Account(s.Features, level), accountDirect(table, pm, s.Features, level)
			if math.Float64bits(got.EnergyMaxPJ) != math.Float64bits(want.EnergyMaxPJ) ||
				math.Float64bits(got.EnergyPJ) != math.Float64bits(want.EnergyPJ) ||
				math.Float64bits(got.PerfLoss) != math.Float64bits(want.PerfLoss) || !got.OK {
				t.Fatalf("sample %d level %d: table %+v, direct %+v", i, level, got, want)
			}
		}
	}
}

// TestBatchCommitEqualsObserve: rows priced from their records by
// ObserveRecords, which commits a batch per 64 of them, leave the ledger —
// snapshot bytes and registry series — exactly as Observe row by row
// does, whatever the run length (200 makes one call commit full batches
// and a partial one).
func TestBatchCommitEqualsObserve(t *testing.T) {
	type row struct {
		cluster  int32
		gen      uint32
		level    int
		features []float64
		preset   float64
	}
	rows := make([]row, 1000)
	for i := range rows {
		r := row{cluster: int32(i%9) - 1, gen: uint32(i / 400), level: i%8 - 1, preset: 0.05 * float64(i%4)}
		switch i % 7 {
		case 0:
			r.features = []float64{1, 2, 3} // short → skipped
		case 1, 2, 3:
			r.features = memRow(1e5 * float64(1+i%13))
		default:
			r.features = computeRow(1e5 * float64(1+i%11)) // slower levels lose energy here
		}
		rows[i] = r
	}
	recs := make([]provenance.Record, len(rows))
	for i, r := range rows {
		rec := &recs[i]
		rec.Cluster, rec.ModelGen, rec.Level, rec.Preset = r.cluster, r.gen, int32(r.level), r.preset
		rec.SetRaw(r.features)
	}
	render := func(chunk int) (snapshot, series []byte) {
		reg := telemetry.NewRegistry()
		l := New(Options{Registry: reg, Now: func() time.Time { return time.Unix(5000, 0) }})
		if chunk == 0 {
			for _, r := range rows {
				l.Observe(r.cluster, r.gen, r.level, r.features, r.preset)
			}
		}
		for lo := 0; chunk > 0 && lo < len(recs); lo += chunk {
			l.ObserveRecords(recs[lo:min(lo+chunk, len(recs))])
		}
		var sb, rb bytes.Buffer
		if err := l.Snapshot().WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteJSON(&rb); err != nil {
			t.Fatal(err)
		}
		return sb.Bytes(), rb.Bytes()
	}
	wantSnap, wantSeries := render(0)
	var s Snapshot
	if err := json.Unmarshal(wantSnap, &s); err != nil {
		t.Fatal(err)
	}
	if s.Skipped == 0 || s.SavedHist.Buckets[0] == 0 || s.Groups["gen=2"].Decisions == 0 {
		t.Fatalf("rows do not cover skipped rows, net-loss rows and three generations: %+v", s)
	}
	for _, chunk := range []int{1, 7, 64, 200} {
		gotSnap, gotSeries := render(chunk)
		if !bytes.Equal(gotSnap, wantSnap) {
			t.Errorf("chunk %d: snapshot differs from row-at-a-time:\n got %s\nwant %s", chunk, gotSnap, wantSnap)
		}
		if !bytes.Equal(gotSeries, wantSeries) {
			t.Errorf("chunk %d: registry series differ from row-at-a-time", chunk)
		}
	}
}
