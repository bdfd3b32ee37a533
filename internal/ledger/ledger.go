// Package ledger is the efficiency ledger: live accounting of the
// objective SSMDVFS actually optimizes. Per served decision it estimates
// the energy delta and performance loss versus the MaxFreq counterfactual
// — "what would this epoch have cost at the table's default (fastest)
// operating point" — from the realized counter row already flowing
// through the serving path and the activity-based power model. The
// estimates accumulate into per-level/per-cluster/per-model-generation
// groups, log-2 histograms, and fixed-size time-series rings whose
// snapshots merge deterministically across replicas, so a fleet router
// can answer "is the fleet saving energy right now, and at what
// performance cost" without offline replay.
//
// The ledger prices decisions from their provenance records: the serving
// engine hands it the records it also hands the flight recorder, and
// ReplayRecords prices a flight-recorder dump offline through the same
// ObserveRecords — the exact cross-check behind `dvfsstat -ledger`.
package ledger

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"ssmdvfs/internal/atomicfile"
	"ssmdvfs/internal/baselines"
	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/isa"
	"ssmdvfs/internal/power"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// Feature-row indices the meter needs beyond the exported canonical set,
// resolved once at init from the counter names so they can never drift
// from the counters package silently.
var (
	idxCycles   = mustIdx("cycles")
	idxL1Hits   = mustIdx("l1_read_hits")
	idxL1Writes = mustIdx("l1_write_accesses")
	idxL2       = mustIdx("l2_accesses")
	idxDRAM     = mustIdx("dram_lines")

	// opFeature maps each ISA op class the power model charges to its
	// per-epoch issue-count feature.
	opFeature = [isa.NumOps]int{
		isa.OpIAlu:        mustIdx("op_ialu"),
		isa.OpFAlu:        mustIdx("op_falu"),
		isa.OpSFU:         mustIdx("op_sfu"),
		isa.OpLoadGlobal:  mustIdx("op_ldg"),
		isa.OpStoreGlobal: mustIdx("op_stg"),
		isa.OpLoadShared:  mustIdx("op_lds"),
		isa.OpBranch:      mustIdx("op_branch"),
	}
)

func mustIdx(name string) int {
	i, err := counters.Index(name)
	if err != nil {
		panic(err)
	}
	return i
}

// DefaultEpochPs is the epoch duration assumed for rows that carry no
// cycle count (synthetic load-generator rows populate only the five
// Table I counters): the paper's 10 µs epoch, in picoseconds.
const DefaultEpochPs = int64(10_000_000)

// Meter converts one (counter row, decided level) pair into an energy and
// performance attribution. It is immutable once built — safe to copy and
// share — so the online ledger and the offline replay cannot diverge:
// they are the same arithmetic.
type Meter struct {
	table *clockdomain.Table
	pow   power.Model
	// staticW is pow.StaticPowerW per level: leakage depends only on the
	// operating point, and computing it is two math.Pow calls a row.
	staticW []float64
}

// NewMeter builds a meter over the TitanX operating-point table and the
// default power calibration (power.Default()).
func NewMeter() Meter {
	table := clockdomain.TitanX()
	p := power.Default()
	staticW := make([]float64, table.Len())
	for level := range staticW {
		staticW[level] = p.StaticPowerW(table.Point(level))
	}
	return Meter{table: table, pow: p, staticW: staticW}
}

// Attribution is one decision's estimated cost versus the MaxFreq
// counterfactual. Energies are picojoules for the epoch; PerfLoss is the
// fractional execution-time dilation the chosen level is predicted to
// cause (0 at the default level).
type Attribution struct {
	EnergyMaxPJ float64
	EnergyPJ    float64
	PerfLoss    float64
	OK          bool
}

// SavedPJ is the estimated energy saved by the chosen level (negative
// when the slower level spends more — possible when leakage over the
// dilated epoch outweighs the dynamic savings).
func (a Attribution) SavedPJ() float64 { return a.EnergyMaxPJ - a.EnergyPJ }

// count reads a feature as a non-negative event count; NaN, negatives
// and absurd magnitudes read as 0 so garbage rows account as empty.
func count(v float64) int64 {
	if !(v > 0) || v > 1e15 {
		return 0
	}
	return int64(v)
}

// Account attributes one decision: given the finished epoch's counter row
// and the level decided for the next epoch, it estimates that workload's
// energy at the chosen level versus at the table's default (fastest)
// point. The workload's events (issued ops, cache and DRAM traffic) are
// frequency-invariant; execution time dilates by the PCSTALL slowdown
// model ((1-s)·f_max/f + s with s the row's memory-boundedness), the
// clock tree is charged for the cycles actually run at each point, and
// leakage integrates over each point's duration. Rows shorter than the
// counter vector account as not-OK (skipped); rows without a cycle count
// assume the paper's 10 µs epoch.
func (m Meter) Account(features []float64, level int) Attribution {
	if len(features) < counters.Num {
		return Attribution{}
	}
	level = m.table.Clamp(level)
	opMax := m.table.Point(m.table.Default())
	opL := m.table.Point(level)

	var act power.Activity
	for op, fi := range opFeature {
		act.OpCounts[op] = count(features[fi])
	}
	act.L1Accesses = count(features[counters.IdxL1CRM]) +
		count(features[idxL1Hits]) + count(features[idxL1Writes])
	act.L2Accesses = count(features[idxL2])
	act.DRAMLines = count(features[idxDRAM])
	act.Cycles = count(features[idxCycles])

	durMax := act.Cycles * opMax.PeriodPs()
	if durMax <= 0 {
		durMax = DefaultEpochPs
		act.Cycles = durMax / opMax.PeriodPs()
	}
	// power.Model.EpochEnergyPJ with the leakage term from the level table.
	energyMax := m.pow.DynamicEnergyPJ(act, opMax) + m.staticW[m.table.Default()]*float64(durMax)

	s := baselines.RowSensitivity(features)
	slowdown := baselines.Slowdown(s, opMax.FrequencyHz, opL.FrequencyHz)
	durL := int64(float64(durMax) * slowdown)
	actL := act
	actL.Cycles = durL / opL.PeriodPs()
	energyL := m.pow.DynamicEnergyPJ(actL, opL) + m.staticW[level]*float64(durL)

	return Attribution{EnergyMaxPJ: energyMax, EnergyPJ: energyL, PerfLoss: slowdown - 1, OK: true}
}

// maxLevels bounds the per-level breakdown, matching the serving tier's
// metrics limit.
const maxLevels = 64

// Group is one breakdown bucket of a Snapshot (a level, a cluster, or a
// model generation). All fields are integer sums, so cross-replica merge
// is exact.
type Group struct {
	Decisions      int64 `json:"decisions"`
	EnergyMaxPJ    int64 `json:"energy_max_pj"`
	EnergyPJ       int64 `json:"energy_pj"`
	PerfLossPpmSum int64 `json:"perf_loss_ppm_sum"`
}

func (g Group) merge(o Group) Group {
	g.Decisions += o.Decisions
	g.EnergyMaxPJ += o.EnergyMaxPJ
	g.EnergyPJ += o.EnergyPJ
	g.PerfLossPpmSum += o.PerfLossPpmSum
	return g
}

// Snapshot is the ledger's JSON exposition (/debug/ledger): integer
// totals, breakdown groups, per-decision histograms, and the time-series
// rings. Everything is integer-summed and map keys marshal sorted, so
// Merge over any replica permutation serializes to identical bytes.
type Snapshot struct {
	// WindowNs is the ring window width; merged snapshots of disagreeing
	// widths carry 0 (rings incomparable, totals still exact).
	WindowNs int64 `json:"window_ns,omitempty"`
	RingCap  int   `json:"ring_cap,omitempty"`

	Decisions int64 `json:"decisions"`
	// Skipped counts rows the meter could not account (short rows).
	Skipped int64 `json:"skipped,omitempty"`

	EnergyMaxPJ    int64 `json:"energy_max_pj"`
	EnergyPJ       int64 `json:"energy_pj"`
	PerfLossPpmSum int64 `json:"perf_loss_ppm_sum"`
	PresetPpmSum   int64 `json:"preset_ppm_sum"`

	// Groups breaks totals down by "level=N", "cluster=N", and "gen=N".
	Groups map[string]Group `json:"groups,omitempty"`

	SavedHist telemetry.HistogramSnapshot `json:"saved_hist"`
	LossHist  telemetry.HistogramSnapshot `json:"loss_hist"`

	// SavedRing/LossRing/PresetRing are per-window sums of saved pJ,
	// perf-loss ppm, and preset ppm (Count = decisions in the window):
	// the counter-rate view behind burn-rate and regression alerts.
	SavedRing  []telemetry.RingPoint `json:"saved_ring,omitempty"`
	LossRing   []telemetry.RingPoint `json:"loss_ring,omitempty"`
	PresetRing []telemetry.RingPoint `json:"preset_ring,omitempty"`
}

// SavedPJ is the net energy saved versus running everything at MaxFreq.
func (s Snapshot) SavedPJ() int64 { return s.EnergyMaxPJ - s.EnergyPJ }

// SavedRatio is the fraction of the MaxFreq energy bill avoided.
func (s Snapshot) SavedRatio() float64 {
	if s.EnergyMaxPJ <= 0 {
		return 0
	}
	return float64(s.SavedPJ()) / float64(s.EnergyMaxPJ)
}

// MeanPerfLoss is the mean predicted performance loss, as a fraction.
func (s Snapshot) MeanPerfLoss() float64 {
	if s.Decisions <= 0 {
		return 0
	}
	return float64(s.PerfLossPpmSum) / 1e6 / float64(s.Decisions)
}

// MeanPreset is the mean requested loss budget, as a fraction.
func (s Snapshot) MeanPreset() float64 {
	if s.Decisions <= 0 {
		return 0
	}
	return float64(s.PresetPpmSum) / 1e6 / float64(s.Decisions)
}

// BudgetBurn is how much of the requested loss budget the fleet is
// spending: mean perf-loss over mean preset (1.0 = exactly on budget).
func (s Snapshot) BudgetBurn() float64 {
	if s.PresetPpmSum <= 0 {
		return 0
	}
	return float64(s.PerfLossPpmSum) / float64(s.PresetPpmSum)
}

// WriteJSON writes the snapshot as indented JSON, the /debug/ledger
// payload. Map keys sort, so equal snapshots are equal bytes.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a WriteJSON payload. It is the one validator of
// the format: it refuses a histogram with more buckets than the ledger
// writes (telemetry.DefaultHistBuckets), since past bucket 1024 a
// bucket's bounds are infinite and Merge would recompute quantiles that
// WriteJSON cannot write.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return s, fmt.Errorf("ledger: %w", err)
	}
	if n := max(len(s.SavedHist.Buckets), len(s.LossHist.Buckets)); n > telemetry.DefaultHistBuckets {
		return Snapshot{}, fmt.Errorf("ledger: a histogram has %d buckets, at most %d", n, telemetry.DefaultHistBuckets)
	}
	return s, nil
}

// ReadSnapshotFile reads a WriteJSON payload from disk.
func ReadSnapshotFile(path string) (Snapshot, error) {
	return atomicfile.ReadWith(path, ReadSnapshot)
}

// Merge folds any number of replica snapshots into the fleet view:
// integer sums per field and group, bucket-summed histograms, index-
// aligned ring merges. Commutative and associative, so the merged bytes
// are identical for every replica permutation.
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	first := true
	ringCap := 0
	for _, s := range snaps {
		if first {
			out.WindowNs = s.WindowNs
			first = false
		} else if out.WindowNs != s.WindowNs {
			out.WindowNs = 0
		}
		if s.RingCap > ringCap {
			ringCap = s.RingCap
		}
		out.Decisions += s.Decisions
		out.Skipped += s.Skipped
		out.EnergyMaxPJ += s.EnergyMaxPJ
		out.EnergyPJ += s.EnergyPJ
		out.PerfLossPpmSum += s.PerfLossPpmSum
		out.PresetPpmSum += s.PresetPpmSum
		for k, g := range s.Groups {
			if out.Groups == nil {
				out.Groups = make(map[string]Group)
			}
			out.Groups[k] = out.Groups[k].merge(g)
		}
		out.SavedHist = telemetry.MergeHistogramSnapshots(out.SavedHist, s.SavedHist)
		out.LossHist = telemetry.MergeHistogramSnapshots(out.LossHist, s.LossHist)
		out.SavedRing = telemetry.MergeRingPoints(out.SavedRing, s.SavedRing, ringCap)
		out.LossRing = telemetry.MergeRingPoints(out.LossRing, s.LossRing, ringCap)
		out.PresetRing = telemetry.MergeRingPoints(out.PresetRing, s.PresetRing, ringCap)
	}
	out.RingCap = ringCap
	return out
}

// Options configures a Ledger. The meter is always NewMeter's, and each
// time-series ring holds telemetry.DefaultRingWindows windows.
type Options struct {
	// Window is the time-series ring window width (default 1 s).
	Window time.Duration
	// Registry hosts the ledger_* series (so a replica's /metrics.prom
	// carries them); nil uses a private registry.
	Registry *telemetry.Registry
	// Now is the clock (tests inject a fake one).
	Now func() time.Time
}

// Ledger is the online accountant. ObserveRecords prices up to 64
// records at a time into a batch on its own stack, touching no shared
// state, then folds the batch in: one clock read, one lock per ring, one
// ledger lock and one gauge refresh however many rows it holds. Observe
// prices one row the same way. A nil *Ledger is a valid no-op, which is
// how the serving engine keeps the disabled path zero-cost.
type Ledger struct {
	meter    Meter
	windowNs int64
	now      func() time.Time

	decisions *telemetry.Counter
	skipped   *telemetry.Counter
	energyMax *telemetry.Counter
	energy    *telemetry.Counter
	savedHist *telemetry.Histogram
	lossHist  *telemetry.Histogram

	savedRatio *telemetry.Gauge
	lossMean   *telemetry.Gauge
	burn       *telemetry.Gauge

	savedRing  *telemetry.Ring
	lossRing   *telemetry.Ring
	presetRing *telemetry.Ring

	mu        sync.Mutex
	lossPpm   int64
	presetPpm int64
	levels    [maxLevels]Group
	clusters  map[int32]*Group
	gens      map[uint32]*Group
}

// New builds a ledger. The returned ledger is ready for concurrent
// Observe calls.
func New(opts Options) *Ledger {
	if opts.Window <= 0 {
		opts.Window = time.Second
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	reg := opts.Registry
	return &Ledger{
		meter:      NewMeter(),
		windowNs:   int64(opts.Window),
		now:        opts.Now,
		decisions:  reg.Counter("ledger_decisions_total"),
		skipped:    reg.Counter("ledger_skipped_total"),
		energyMax:  reg.Counter("ledger_energy_max_pj_total"),
		energy:     reg.Counter("ledger_energy_pj_total"),
		savedHist:  reg.Histogram("ledger_decision_saved_pj"),
		lossHist:   reg.Histogram("ledger_decision_perf_loss_ppm"),
		savedRatio: reg.Gauge("ledger_energy_saved_ratio"),
		lossMean:   reg.Gauge("ledger_perf_loss_mean_ppm"),
		burn:       reg.Gauge("ledger_budget_burn"),
		savedRing:  telemetry.NewRing(telemetry.DefaultRingWindows),
		lossRing:   telemetry.NewRing(telemetry.DefaultRingWindows),
		presetRing: telemetry.NewRing(telemetry.DefaultRingWindows),
		clusters:   make(map[int32]*Group),
		gens:       make(map[uint32]*Group),
	}
}

// Meter returns the ledger's meter — the arithmetic offline replays must
// share.
func (l *Ledger) Meter() Meter {
	if l == nil {
		return NewMeter()
	}
	return l.meter
}

func ppm(v float64) int64 {
	if !(v > 0) {
		return 0
	}
	if v > 1000 {
		v = 1000
	}
	return int64(v * 1e6)
}

// maxTrackedKeys bounds the cluster/generation breakdown maps; key churn
// beyond it folds into the existing buckets' complement (new keys are
// simply not tracked), keeping the hot path allocation-bounded.
const maxTrackedKeys = 1 << 10

// batchRows is how many priced rows one commit folds in: one inference
// chunk of the serving engine.
const batchRows = 64

// batch is up to batchRows priced decisions waiting for one commit. It
// lives on the stack of the call that prices them.
type batch struct {
	sum     Group // of rows[:sum.Decisions]
	skipped int64

	presetPpm, savedPJ, savedHistSum int64
	savedBins, lossBins              [telemetry.DefaultHistBuckets]int64

	rows [batchRows]batchRow
}

// batchRow is one priced decision: its breakdown keys and its group of one.
type batchRow struct {
	cluster int32
	gen     uint32
	level   int
	g       Group
}

// price adds the decision that rec records to b, which has room for it.
// Unaccountable rows count as skipped.
func (l *Ledger) price(b *batch, rec *provenance.Record) {
	level := int(rec.Level)
	a := l.meter.Account(rec.RawFeatures(), level)
	if !a.OK {
		b.skipped++
		return
	}
	g := Group{Decisions: 1, EnergyMaxPJ: int64(a.EnergyMaxPJ), EnergyPJ: int64(a.EnergyPJ), PerfLossPpmSum: ppm(a.PerfLoss)}
	b.rows[b.sum.Decisions] = batchRow{cluster: rec.Cluster, gen: rec.ModelGen, level: level, g: g}
	b.sum = b.sum.merge(g)
	b.presetPpm += ppm(rec.Preset)
	savedPJ := int64(a.SavedPJ())
	b.savedPJ += savedPJ
	if savedPJ < 0 {
		savedPJ = 0 // the histogram bins savings; a net loss reads as none
	}
	b.savedHistSum += savedPJ
	b.savedBins[telemetry.BucketIndex(savedPJ, len(b.savedBins))]++
	b.lossBins[telemetry.BucketIndex(g.PerfLossPpmSum, len(b.lossBins))]++
}

// commit folds b into the ledger. All of b's rows land in the ring window
// the clock reads now.
func (l *Ledger) commit(b *batch) {
	if b.skipped > 0 {
		l.skipped.Add(b.skipped)
	}
	n := b.sum.Decisions
	if n == 0 {
		return
	}
	l.decisions.Add(n)
	l.energyMax.Add(b.sum.EnergyMaxPJ)
	l.energy.Add(b.sum.EnergyPJ)
	l.savedHist.ObserveBinned(b.savedBins[:], b.savedHistSum)
	l.lossHist.ObserveBinned(b.lossBins[:], b.sum.PerfLossPpmSum)

	w := l.now().UnixNano() / l.windowNs
	l.savedRing.ObserveN(w, n, b.savedPJ)
	l.lossRing.ObserveN(w, n, b.sum.PerfLossPpmSum)
	l.presetRing.ObserveN(w, n, b.presetPpm)

	l.mu.Lock()
	l.lossPpm += b.sum.PerfLossPpmSum
	l.presetPpm += b.presetPpm
	for i := range b.rows[:n] {
		r := &b.rows[i]
		if r.level >= 0 && r.level < maxLevels {
			l.levels[r.level] = l.levels[r.level].merge(r.g)
		}
		if r.cluster >= 0 {
			if g := tracked(l.clusters, r.cluster); g != nil {
				*g = g.merge(r.g)
			}
		}
		if g := tracked(l.gens, r.gen); g != nil {
			*g = g.merge(r.g)
		}
	}
	lossSum, presetSum := l.lossPpm, l.presetPpm
	l.mu.Unlock()

	// Derived gauges ride the same scrape as the counters; computed from
	// running totals so they are always current without a flush loop.
	totMax, tot := l.energyMax.Load(), l.energy.Load()
	if totMax > 0 {
		l.savedRatio.Set(float64(totMax-tot) / float64(totMax))
	}
	if n := l.decisions.Load(); n > 0 {
		l.lossMean.Set(float64(lossSum) / float64(n))
	}
	if presetSum > 0 {
		l.burn.Set(float64(lossSum) / float64(presetSum))
	}
}

// tracked returns key's breakdown group, creating it while the map is
// under maxTrackedKeys; nil means the key is not tracked.
func tracked[K comparable](m map[K]*Group, key K) *Group {
	g := m[key]
	if g == nil && len(m) < maxTrackedKeys {
		g = &Group{}
		m[key] = g
	}
	return g
}

// ObserveRecords accounts a run of served decisions from their
// flight-recorder records — each one's finished epoch's counter row, the
// level decided for the next epoch, the requesting cluster (-1 for
// unkeyed rows), the serving model generation and the preset —
// committing once per batchRows records. It is the one way decisions are
// priced: the serving engine hands it each observed chunk, ReplayRecords
// a whole dump, and Observe one row. Nil-safe.
func (l *Ledger) ObserveRecords(recs []provenance.Record) {
	if l == nil {
		return
	}
	for len(recs) > 0 {
		var b batch
		n := min(len(recs), batchRows)
		for i := range recs[:n] {
			l.price(&b, &recs[i])
		}
		l.commit(&b)
		recs = recs[n:]
	}
}

// Observe accounts one served decision from its row, through the record
// the row makes. Nil-safe.
func (l *Ledger) Observe(cluster int32, gen uint32, level int, features []float64, preset float64) {
	recs := [1]provenance.Record{{Cluster: cluster, ModelGen: gen, Level: int32(level), Preset: preset}}
	recs[0].SetRaw(features)
	l.ObserveRecords(recs[:])
}

// Snapshot captures the ledger. Totals and groups are read under the
// ledger's own synchronization; under concurrent traffic the counters and
// sums may straddle a decision or two, which the fleet's merge tolerance
// absorbs.
func (l *Ledger) Snapshot() Snapshot {
	if l == nil {
		return Snapshot{}
	}
	s := Snapshot{
		WindowNs:    l.windowNs,
		RingCap:     telemetry.DefaultRingWindows,
		Decisions:   l.decisions.Load(),
		Skipped:     l.skipped.Load(),
		EnergyMaxPJ: l.energyMax.Load(),
		EnergyPJ:    l.energy.Load(),
		SavedHist:   l.savedHist.Snapshot(),
		LossHist:    l.lossHist.Snapshot(),
		SavedRing:   l.savedRing.Snapshot(nil),
		LossRing:    l.lossRing.Snapshot(nil),
		PresetRing:  l.presetRing.Snapshot(nil),
		Groups:      make(map[string]Group),
	}
	l.mu.Lock()
	s.PerfLossPpmSum = l.lossPpm
	s.PresetPpmSum = l.presetPpm
	for lvl, g := range l.levels {
		if g.Decisions > 0 {
			s.Groups[fmt.Sprintf("level=%d", lvl)] = g
		}
	}
	for c, g := range l.clusters {
		s.Groups[fmt.Sprintf("cluster=%d", c)] = *g
	}
	for gen, g := range l.gens {
		s.Groups[fmt.Sprintf("gen=%d", gen)] = *g
	}
	l.mu.Unlock()
	if len(s.Groups) == 0 {
		s.Groups = nil
	}
	return s
}

// ReplayRecords prices a provenance flight-recorder dump through the
// ObserveRecords the online ledger prices with — the offline cross-check
// for the online ledger. A dump that covers every served decision
// reproduces the online totals, groups and histograms exactly; the ≤2 %
// tolerance in `dvfsstat -ledger` exists for dumps whose ring capacity
// dropped the oldest decisions or that were scraped mid-traffic. Its
// rings hold one window, the epoch's.
func ReplayRecords(recs []provenance.Record) Snapshot {
	l := New(Options{Now: func() time.Time { return time.Unix(0, 0) }})
	l.ObserveRecords(recs)
	return l.Snapshot()
}

// FormatEnergyPJ renders a picojoule quantity with a human unit.
func FormatEnergyPJ(pj float64) string {
	abs := math.Abs(pj)
	switch {
	case abs >= 1e12:
		return fmt.Sprintf("%.3g J", pj/1e12)
	case abs >= 1e9:
		return fmt.Sprintf("%.3g mJ", pj/1e9)
	case abs >= 1e6:
		return fmt.Sprintf("%.3g µJ", pj/1e6)
	case abs >= 1e3:
		return fmt.Sprintf("%.3g nJ", pj/1e3)
	default:
		return fmt.Sprintf("%.3g pJ", pj)
	}
}
