package adapt

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/nn"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/serve"
)

// trafficMean/Std describe the synthetic live feature distribution the
// adapt tests serve; the model's scalers carry the same statistics so
// the only drift signal is the calibration error.
const (
	trafficMean = 3000.0
	trafficStd  = 1000.0
	instrBase   = 3000.0
)

// adaptModel hand-crafts the test incumbent: a random (but shared-able)
// Decision head, and a Calibrator whose hidden layers are all zero with
// an output bias of 1.0 — it predicts exactly TargetScale (1000)
// instructions for any input. Live traffic realizes ~3000, so the
// incumbent's live MAPE sits at ~2.0 (miles over the 0.25 threshold) and
// a warm-started re-fit deterministically learns the output bias toward
// 3.0, because zero hidden weights leave the bias as the only parameter
// with gradient flow.
func adaptModel(tb testing.TB, seed int64) *core.Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	dec, err := nn.NewMLP([]int{6, 16, 6}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	cal, err := nn.NewMLP([]int{7, 16, 1}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	for _, l := range cal.Layers {
		for i := range l.W {
			l.W[i] = 0
		}
		for i := range l.B {
			l.B[i] = 0
		}
	}
	cal.Layers[len(cal.Layers)-1].B[0] = 1.0

	scaler := func(n int) *counters.Scaler {
		s := &counters.Scaler{Mean: make([]float64, n), Std: make([]float64, n)}
		for i := 0; i < 5; i++ {
			s.Mean[i] = trafficMean
			s.Std[i] = trafficStd
		}
		for i := 5; i < n; i++ {
			s.Std[i] = 1
		}
		return s
	}
	return &core.Model{
		FeatureIdx:     counters.SelectedFive(),
		Levels:         6,
		Decision:       dec,
		Calibrator:     cal,
		DecisionScaler: scaler(6),
		CalibScaler:    scaler(7),
		TargetScale:    1000,
		PresetSamples:  1,
	}
}

// trafficRow builds one keyed epoch row: selected features on the
// training distribution, realized instructions around instr.
func trafficRow(rng *rand.Rand, cluster int32, instr float64) serve.Request {
	feats := make([]float64, counters.Num)
	for _, idx := range counters.SelectedFive() {
		feats[idx] = trafficMean + trafficStd*0.01*(rng.Float64()-0.5)
	}
	feats[counters.IdxInstr] = instr * (1 + 0.01*(rng.Float64()-0.5))
	return serve.Request{Preset: 0.1, Features: feats, GPU: 0, Cluster: cluster}
}

// adaptEngine builds the serving engine + controller pair the tests
// drive deterministically via Step().
func adaptEngine(tb testing.TB, opts Options) (*serve.Engine, *Controller) {
	tb.Helper()
	e, err := serve.NewEngine(adaptModel(tb, 70), serve.Options{Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	e.EnableProvenance(8192, provenance.MonitorOptions{Window: 64})
	e.EnablePredFeedback()
	c, err := NewController(e, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return e, c
}

func testOpts() Options {
	return Options{
		MinRows:          64,
		ShadowMinSamples: 32,
		CanaryMinSamples: 32,
		CooldownSteps:    2,
		Margin:           0.05,
		Refit:            core.RefitOptions{Epochs: 150, BatchSize: 32, LearningRate: 0.02, Seed: 1},
	}
}

// serveBatches pushes n keyed batches through the engine.
func serveBatches(e *serve.Engine, rng *rand.Rand, n int, instr float64) {
	rows := make([]serve.Request, 8)
	var decs []serve.Decision
	for b := 0; b < n; b++ {
		for i := range rows {
			rows[i] = trafficRow(rng, int32(i), instr)
		}
		decs = e.DecideBatch(rows, decs[:0])
	}
}

// waitState steps the controller (serving traffic between steps) until
// it reaches want or the deadline passes.
func waitState(t *testing.T, e *serve.Engine, c *Controller, rng *rand.Rand, instr float64, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("controller stuck in %s (want %s): %+v", c.State(), want, c.Status())
		}
		serveBatches(e, rng, 4, instr)
		c.Step()
	}
}

func TestStreamBuilderPairsEpochs(t *testing.T) {
	rec := provenance.NewRecorder(64)
	b := newStreamBuilder(32)
	mk := func(cluster int32, reason provenance.Reason, instr float64) {
		r := provenance.Record{Cluster: cluster, Reason: reason, Preset: 0.1, Level: 2}
		raw := make([]float64, counters.Num)
		for i := range raw {
			raw[i] = float64(i)
		}
		raw[counters.IdxInstr] = instr
		r.SetRaw(raw)
		rec.Record(&r)
	}
	mk(0, provenance.ReasonModel, 100)
	mk(1, provenance.ReasonModel, 200)
	mk(0, provenance.ReasonModel, 150)    // pairs with cluster 0's first epoch
	mk(1, provenance.ReasonFallback, 250) // pairs, then breaks cluster 1's chain
	mk(1, provenance.ReasonModel, 300)    // fresh start: no pending to pair with
	if n := b.Scan(rec, nil, nil); n != 5 {
		t.Fatalf("scanned %d records, want 5", n)
	}
	if b.Len() != 2 {
		t.Fatalf("stream holds %d pairs, want 2", b.Len())
	}
	rows, targets := b.Build([]int{0, 1})
	if len(rows) != 2 || len(rows[0]) != 4 {
		t.Fatalf("built %d rows of width %d, want 2 of 4", len(rows), len(rows[0]))
	}
	if targets[0] != 150 || targets[1] != 250 {
		t.Fatalf("targets = %v, want [150 250]", targets)
	}
	// Re-scanning sees nothing new; a later record resumes cluster 1.
	if n := b.Scan(rec, nil, nil); n != 0 {
		t.Fatalf("re-scan saw %d records, want 0", n)
	}
	mk(1, provenance.ReasonModel, 400)
	b.Scan(rec, nil, nil)
	if b.Len() != 3 {
		t.Fatalf("stream holds %d pairs after resume, want 3", b.Len())
	}
}

// TestControllerFullCycleCommit drives the loop end to end on clean
// post-drift traffic: drift → refit → shadow → promote → canary →
// commit, with the serving generation advanced and every transition in
// the log.
func TestControllerFullCycleCommit(t *testing.T) {
	e, c := adaptEngine(t, testOpts())
	rng := rand.New(rand.NewSource(80))

	if c.State() != StateMonitoring {
		t.Fatalf("initial state %s", c.State())
	}
	// Clean traffic until the MAPE window fills and the stream has rows.
	waitState(t, e, c, rng, instrBase, StateShadow)
	st := c.Status()
	if st.CandidateGen != 1 {
		t.Fatalf("candidate generation = %d, want 1", st.CandidateGen)
	}
	if e.Generation() != 0 {
		t.Fatal("candidate is serving during shadow")
	}

	waitState(t, e, c, rng, instrBase, StateCanary)
	if e.Generation() != 1 {
		t.Fatalf("serving generation after promotion = %d, want 1", e.Generation())
	}
	if e.Model().Lineage.Source != core.SourceRefit {
		t.Fatalf("promoted lineage = %+v", e.Model().Lineage)
	}

	waitState(t, e, c, rng, instrBase, StateCooldown)
	if e.Generation() != 1 {
		t.Fatalf("serving generation after commit = %d, want 1 (no rollback)", e.Generation())
	}
	// Cooldown drains back to monitoring without traffic.
	c.Step()
	c.Step()
	if c.State() != StateMonitoring {
		t.Fatalf("state after cooldown = %s", c.State())
	}

	// The transition log tells the whole story in order.
	var kinds []string
	for _, ev := range c.Events().Snapshot(nil) {
		if ev.Kind == string(StateShadow) || ev.Kind == string(StateCanary) ||
			ev.Kind == string(StateCooldown) || ev.Kind == string(StateMonitoring) {
			kinds = append(kinds, ev.Kind)
		}
	}
	want := []string{"shadow", "canary", "cooldown", "monitoring"}
	if len(kinds) != len(want) {
		t.Fatalf("transitions = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("transition %d = %s, want %s", i, kinds[i], want[i])
		}
	}

	// Telemetry saw the same history.
	snap := e.Telemetry().Snapshot()
	if snap.Counters["adapt_refits_total"] != 1 || snap.Counters["adapt_promotions_total"] != 1 {
		t.Fatalf("refits/promotions = %d/%d, want 1/1",
			snap.Counters["adapt_refits_total"], snap.Counters["adapt_promotions_total"])
	}
	if snap.Counters["adapt_rollbacks_total"] != 0 {
		t.Fatal("clean commit recorded a rollback")
	}
}

// TestControllerRollbackOnRegression forces a post-promotion workload
// shift: the canary's live MAPE blows its shadow promise and the
// controller rolls back to the retained incumbent without touching disk.
func TestControllerRollbackOnRegression(t *testing.T) {
	e, c := adaptEngine(t, testOpts())
	rng := rand.New(rand.NewSource(81))

	waitState(t, e, c, rng, instrBase, StateShadow)
	waitState(t, e, c, rng, instrBase, StateCanary)
	if e.Generation() != 1 {
		t.Fatalf("canary generation = %d, want 1", e.Generation())
	}

	// The workload shifts 10×: every live prediction is now off by ~9×
	// its value, far over max(promise*1.5, 0.10).
	waitState(t, e, c, rng, instrBase*10, StateCooldown)
	if e.Generation() != 0 {
		t.Fatalf("serving generation after regression = %d, want 0 (rolled back)", e.Generation())
	}
	snap := e.Telemetry().Snapshot()
	if snap.Counters["adapt_rollbacks_total"] != 1 {
		t.Fatalf("rollbacks = %d, want 1", snap.Counters["adapt_rollbacks_total"])
	}
	var sawRollback bool
	for _, ev := range c.Events().Snapshot(nil) {
		if ev.Kind == string(StateCooldown) && ev.Detail["restored_generation"] != nil {
			sawRollback = true
		}
	}
	if !sawRollback {
		t.Fatal("rollback transition missing from the event log")
	}
}

// TestCanaryRollbackThreshold pins the canary's rollback threshold,
// max(promise*RegressFactor, absRegress), at the defaults: a promise of
// 0.01 puts promise*1.5 at 0.015, under the 0.10 floor, so a live MAPE of
// 0.05 stays in canary and 0.12 rolls back.
func TestCanaryRollbackThreshold(t *testing.T) {
	for _, tc := range []struct {
		live    float64
		want    State
		serving int // generation serving after the step
	}{
		{live: 0.05, want: StateCanary, serving: 1},
		{live: 0.12, want: StateCooldown, serving: 0},
	} {
		e, c := adaptEngine(t, Options{})
		cand := adaptModel(t, 71)
		cand.Lineage = core.Lineage{Generation: 1, Source: core.SourceRefit}
		if err := e.Swap(cand); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		c.state, c.candidate, c.promise = StateCanary, cand, 0.01
		// 64 samples arm the regression check and stay under the default
		// commit gate of 256, so only the threshold decides.
		c.canaryN = 64
		c.canarySum = tc.live * float64(c.canaryN)
		c.stepCanary()
		got := c.state
		c.mu.Unlock()
		if got != tc.want || e.Generation() != tc.serving {
			t.Fatalf("live MAPE %.2f on promise 0.01: state %s serving gen %d, want %s serving gen %d",
				tc.live, got, e.Generation(), tc.want, tc.serving)
		}
	}
}

// TestControllerRejectsByMargin pins the promotion gate: with an
// unreachable margin the candidate is discarded after scoring and never
// serves.
func TestControllerRejectsByMargin(t *testing.T) {
	opts := testOpts()
	opts.Margin = 0.999999 // incumbent MAPE * (1-margin) ≈ 0: unbeatable
	e, c := adaptEngine(t, opts)
	rng := rand.New(rand.NewSource(82))

	waitState(t, e, c, rng, instrBase, StateShadow)
	waitState(t, e, c, rng, instrBase, StateCooldown)
	if e.Generation() != 0 {
		t.Fatalf("rejected candidate is serving (generation %d)", e.Generation())
	}
	snap := e.Telemetry().Snapshot()
	if snap.Counters["adapt_rejects_total"] != 1 || snap.Counters["adapt_promotions_total"] != 0 {
		t.Fatalf("rejects/promotions = %d/%d, want 1/0",
			snap.Counters["adapt_rejects_total"], snap.Counters["adapt_promotions_total"])
	}
	if c.Status().LastReject == "" {
		t.Fatal("reject reason not recorded")
	}
	// A later cycle must not reuse the rejected candidate's generation.
	waitState(t, e, c, rng, instrBase, StateMonitoring)
	waitState(t, e, c, rng, instrBase, StateShadow)
	if got := c.Status().CandidateGen; got != 2 {
		t.Fatalf("second candidate generation = %d, want 2", got)
	}
}

// TestControllerHandler pins the /debug/adapt payload shape.
func TestControllerHandler(t *testing.T) {
	e, c := adaptEngine(t, testOpts())
	rng := rand.New(rand.NewSource(83))
	serveBatches(e, rng, 4, instrBase)
	c.Step()

	rr := httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/adapt", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("payload not JSON: %v\n%s", err, rr.Body.String())
	}
	if st.State != StateMonitoring || st.Transitions == nil {
		t.Fatalf("status = %+v", st)
	}
}

// TestControllerRequiresProvenance pins the constructor contract.
func TestControllerRequiresProvenance(t *testing.T) {
	e, err := serve.NewEngine(adaptModel(t, 71), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewController(e, Options{}); err == nil {
		t.Fatal("controller accepted an engine without provenance")
	}
	if _, err := NewController(nil, Options{}); err == nil {
		t.Fatal("controller accepted a nil engine")
	}
}

// TestPollRefitsOnlyWhileDriftHolds pins what the controller sees: the
// monitor's level at the step, nothing in between. A MAPE crossing that
// rises and clears between two steps starts no refit; one that holds at
// the step does.
func TestPollRefitsOnlyWhileDriftHolds(t *testing.T) {
	e, c := adaptEngine(t, testOpts())
	rng := rand.New(rand.NewSource(84))
	refits := e.Telemetry().Counter("adapt_refits_total")
	mon := e.QualityMonitor()
	// The incumbent predicts 1000 instructions: traffic realizing 1000 is
	// on target, traffic realizing 3000 is 200 % off.
	const onTarget, offTarget = 1000.0, 3000.0

	serveBatches(e, rng, 10, onTarget) // a full MAPE window, a stream past MinRows
	c.Step()
	if st := mon.DriftState(); st.MAPEHigh || c.State() != StateMonitoring {
		t.Fatalf("on-target traffic: state %s, drift %+v", c.State(), st)
	}

	// Rise: two batches off target push the window over the threshold.
	serveBatches(e, rng, 2, offTarget)
	if st := mon.DriftState(); !st.MAPEHigh {
		t.Fatalf("off-target burst did not cross the threshold: %+v", st)
	}
	// Clear: a window of on-target traffic before the next step.
	serveBatches(e, rng, 9, onTarget)
	if st := mon.DriftState(); st.MAPEHigh {
		t.Fatalf("window did not recover: %+v", st)
	}
	c.Step()
	if c.State() != StateMonitoring || refits.Load() != 0 {
		t.Fatalf("a crossing that cleared before the step started a refit: state %s, refits %d",
			c.State(), refits.Load())
	}

	// Hold: the crossing is still high when the controller polls.
	serveBatches(e, rng, 2, offTarget)
	c.Step()
	if c.State() != StateShadow || refits.Load() != 1 {
		t.Fatalf("a crossing held at the step: state %s, refits %d, want shadow after 1 refit",
			c.State(), refits.Load())
	}
}

// TestStreamPairsPerGPU: two GPUs interleaved on cluster 0 each pair
// their own epochs; no input is labelled with the other GPU's
// next-epoch instructions.
func TestStreamPairsPerGPU(t *testing.T) {
	rec := provenance.NewRecorder(64)
	b := newStreamBuilder(32)
	raw := make([]float64, counters.Num)
	for i := 0; i < 16; i++ {
		gpu := int32(i % 2)
		r := provenance.Record{GPU: gpu, Cluster: 0, Reason: provenance.ReasonModel, Preset: 0.1, Level: 2}
		raw[0] = float64(gpu) // the input names its GPU
		raw[counters.IdxInstr] = float64(1000*(int(gpu)+1) + i)
		r.SetRaw(raw)
		rec.Record(&r)
	}
	b.Scan(rec, nil, nil)
	rows, targets := b.Build([]int{0})
	if len(rows) != 14 {
		t.Fatalf("built %d pairs, want 14 (7 per GPU)", len(rows))
	}
	for i, x := range rows {
		if gpu := int(targets[i])/1000 - 1; gpu != int(x[0]) {
			t.Fatalf("pair %d: inputs from GPU %g labelled with GPU %d's instructions (%g)", i, x[0], gpu, targets[i])
		}
	}
}

// streamRecord builds a keyed record whose raw row is its index and whose
// instruction column is instr.
func streamRecord(cluster int32, reason provenance.Reason, instr float64) provenance.Record {
	r := provenance.Record{Cluster: cluster, Reason: reason, Preset: 0.1, Level: 2}
	raw := make([]float64, counters.Num)
	for i := range raw {
		raw[i] = float64(i)
	}
	raw[counters.IdxInstr] = instr
	r.SetRaw(raw)
	return r
}

// TestStreamNeverPairsAcrossLostRecords: records the ring overwrote
// between two scans break every pending chain, so a key's next record is
// not taken as the realization of a decision epochs older.
func TestStreamNeverPairsAcrossLostRecords(t *testing.T) {
	rec := provenance.NewRecorder(8)
	b := newStreamBuilder(32)
	first := streamRecord(0, provenance.ReasonModel, 100)
	rec.Record(&first)
	b.Scan(rec, nil, nil)
	for i := 0; i < 9; i++ {
		r := streamRecord(-1, provenance.ReasonModel, 200) // unkeyed: pairs with nothing
		rec.Record(&r)
	}
	next := streamRecord(0, provenance.ReasonModel, 300)
	rec.Record(&next) // Seq 11: the ring of 8 holds 4..11, so 2 and 3 are lost
	var pairs int
	if n := b.Scan(rec, nil, func(*pendingPred, float64) { pairs++ }); n != 8 {
		t.Fatalf("scanned %d records, want the 8 the ring holds", n)
	}
	if pairs != 0 || b.Len() != 0 {
		t.Fatalf("paired %d (stream holds %d) across lost records, want 0", pairs, b.Len())
	}
}

// TestStreamStopsAtHole: a snapshot that lacks a Seq (a write that has
// not landed) is consumed up to the hole and no further; the next scan
// resumes at the hole, so the record is not skipped.
func TestStreamStopsAtHole(t *testing.T) {
	recs := []provenance.Record{
		streamRecord(0, provenance.ReasonModel, 100),
		streamRecord(0, provenance.ReasonModel, 150),
		streamRecord(0, provenance.ReasonModel, 200),
		streamRecord(0, provenance.ReasonModel, 250),
		streamRecord(0, provenance.ReasonModel, 300),
	}
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
	}
	b := newStreamBuilder(32)
	var visited []uint64
	visit := func(r *provenance.Record) { visited = append(visited, r.Seq) }
	holed := append(append([]provenance.Record{}, recs[:2]...), recs[3:]...) // Seq 3 missing
	if n := b.scanRecords(holed, 0, visit, nil); n != 2 {
		t.Fatalf("consumed %d records past a hole at Seq 3, want 2", n)
	}
	if n := b.scanRecords(holed, 0, visit, nil); n != 0 {
		t.Fatalf("re-scan with the hole still open consumed %d records, want 0", n)
	}
	if n := b.scanRecords(recs, 0, visit, nil); n != 3 {
		t.Fatalf("consumed %d records once the hole filled, want 3", n)
	}
	if want := []uint64{1, 2, 3, 4, 5}; !slices.Equal(visited, want) {
		t.Fatalf("visited Seq %v, want %v", visited, want)
	}
	if _, targets := b.Build([]int{0}); !slices.Equal(targets, []float64{150, 200, 250, 300}) {
		t.Fatalf("targets = %v, want [150 200 250 300]", targets)
	}
}

// TestShadowGradesStreamPairs pins shadow scoring on the training
// stream's pairs: the incumbent's served prediction and a candidate that
// predicts a constant 2000 instructions are graded against the realized
// count; a pair with a non-positive prediction is skipped; a degraded
// record grades its key's pair and then breaks the chain; unkeyed rows
// are ignored; agreement counts the graded pairs whose candidate level
// equals the served one.
func TestShadowGradesStreamPairs(t *testing.T) {
	cand := adaptModel(t, 72)
	cal := cand.Calibrator.Layers[len(cand.Calibrator.Layers)-1]
	cal.B[0] = 2.0 // zero hidden weights: every prediction is 2.0 × TargetScale
	s := newShadowScore(cand)

	// Every record carries the same selected features, so the candidate
	// picks one level for all of them.
	base := streamRecord(0, provenance.ReasonModel, 0)
	candLevel := int32(core.NewInference(cand).DecideLevel(base.RawFeatures(), base.Preset))
	rec := provenance.NewRecorder(64)
	add := func(cluster int32, reason provenance.Reason, level int32, pred, instr float64) {
		r := streamRecord(cluster, reason, instr)
		r.Level, r.PredInstr = level, pred
		rec.Record(&r)
	}
	other := (candLevel + 1) % int32(cand.Levels)
	add(0, provenance.ReasonModel, candLevel, 1000, 900)     // served the candidate's level
	add(-1, provenance.ReasonModel, candLevel, 1000, 5000)   // unkeyed: ignored
	add(1, provenance.ReasonModel, other, 0, 900)            // no served prediction
	add(0, provenance.ReasonModel, other, 1000, 1500)        // realizes 1500 for the first
	add(1, provenance.ReasonModel, other, 1000, 800)         // skipped: incumbent predicted 0
	add(0, provenance.ReasonFallback, candLevel, 1000, 3000) // realizes 3000, breaks the chain
	add(0, provenance.ReasonModel, candLevel, 1000, 700)     // nothing pending to realize
	add(-1, provenance.ReasonModel, candLevel, 1000, 100)    // unkeyed: ignored
	newStreamBuilder(32).Scan(rec, nil, s.grade)

	got := s.Result()
	// Incumbent: |1000-1500|/1000 = 0.5 and |1000-3000|/1000 = 2.
	// Candidate: |2000-1500|/2000 = 0.25 and |2000-3000|/2000 = 0.5.
	want := ShadowResult{Samples: 2, Incumbent: 1.25, Candidate: 0.375, AgreeRate: 0.5}
	if got != want {
		t.Fatalf("shadow result = %+v, want %+v", got, want)
	}
}
