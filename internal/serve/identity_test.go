package serve

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/provenance"
)

// identityEngine is an engine with provenance and prediction feedback on
// and a flip window of 8 decisions.
func identityEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(testModel(t, 1), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableProvenance(64, provenance.MonitorOptions{Window: 8})
	e.EnablePredFeedback()
	return e
}

// observeDecided observes at most inferChunk rows answered with decs as
// one run, through the observe a served batch ends in, so a test
// chooses the levels and reasons the identity table sees.
func observeDecided(e *Engine, rows []Request, decs []Decision) {
	e.observeRows(e.acquireScratch(e.Model(), len(rows), 0), rows, decs, time.Now())
}

// TestIdentityTableFlipRate: the engine stamps each identity's previous
// level into its record, so the monitor's flip rate counts level changes
// per (GPU, cluster). A new identity's first decision is not a flip, and
// two GPUs interleaved on one cluster index, each holding its own level,
// do not flip.
func TestIdentityTableFlipRate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	decide := func(e *Engine, gpu, cluster int32, level int) {
		observeDecided(e,
			[]Request{{Preset: 0.1, Features: featureRow(rng), GPU: gpu, Cluster: cluster}},
			[]Decision{{Level: level, Reason: provenance.ReasonModel, PredInstr: 1000, Shard: -1}})
	}
	e := identityEngine(t)
	for _, l := range []int{2, 2, 3, 3, 3, 1} { // flips at 3 and 1 → 2 flips in 5 transitions
		decide(e, 0, 0, l)
	}
	if got, want := e.QualityMonitor().DriftState().FlipRate, 2.0/5.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("flip rate = %g, want %g", got, want)
	}
	// A second cluster has its own last level: its first decision is not
	// a flip.
	decide(e, 0, 1, 5)
	if got, want := e.QualityMonitor().DriftState().FlipRate, 2.0/5.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("flip rate after new cluster = %g, want %g", got, want)
	}

	// Two GPUs interleaved on the same cluster index, each holding its own
	// level: the last level is kept per (GPU, cluster), so nothing flips.
	e = identityEngine(t)
	for i := 0; i < 8; i++ {
		decide(e, int32(i%2), 3, 2+2*(i%2))
	}
	if got := e.QualityMonitor().DriftState().FlipRate; got != 0 {
		t.Fatalf("flip rate over two steady GPUs on cluster 3 = %g, want 0", got)
	}
}

// TestIdentityTableDegradedDecision: a degraded decision counts toward
// the flip rate like any other, realizes the identity's pending
// prediction, and breaks its feedback chain, so the model decision after
// it carries no prediction error.
func TestIdentityTableDegradedDecision(t *testing.T) {
	e := identityEngine(t)
	rng := rand.New(rand.NewSource(6))
	row := func(instr float64) Request {
		r := Request{Preset: 0.1, Features: featureRow(rng), GPU: 0, Cluster: 2}
		r.Features[counters.IdxInstr] = instr
		return r
	}
	observeDecided(e, []Request{row(900), row(1250), row(700)}, []Decision{
		{Level: 1, Reason: provenance.ReasonModel, PredInstr: 1000, Shard: -1},
		{Level: 3, Reason: provenance.ReasonFallback, PredInstr: 800, Shard: -1},
		{Level: 3, Reason: provenance.ReasonModel, PredInstr: 900, Shard: -1},
	})
	recs := e.FlightRecorder().Snapshot(nil)
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3", len(recs))
	}
	if recs[0].HasPrevLevel || recs[0].HasPredErr {
		t.Fatalf("first decision carries a previous level or an error: %+v", recs[0])
	}
	if !recs[1].HasPrevLevel || recs[1].PrevLevel != 1 || !recs[1].HasPredErr || math.Abs(recs[1].PredErr-(-0.25)) > 1e-12 {
		t.Fatalf("degraded decision = prev %d/%v, err %g/%v; want prev 1 and the model's prediction realized at -0.25",
			recs[1].PrevLevel, recs[1].HasPrevLevel, recs[1].PredErr, recs[1].HasPredErr)
	}
	if !recs[2].HasPrevLevel || recs[2].PrevLevel != 3 || recs[2].HasPredErr {
		t.Fatalf("decision after the degraded one = prev %d/%v, err %g/%v; want prev 3 and no error",
			recs[2].PrevLevel, recs[2].HasPrevLevel, recs[2].PredErr, recs[2].HasPredErr)
	}
	st := e.QualityMonitor().DriftState()
	if st.FlipRate != 0.5 || st.ErrSamples != 1 {
		t.Fatalf("flip rate %g over %d error samples, want 0.5 over 1", st.FlipRate, st.ErrSamples)
	}
}

// TestIdentityTableBounded: a stream cycling through more (GPU, cluster)
// identities than any fleet has starts the identity table over instead
// of growing it without bound.
func TestIdentityTableBounded(t *testing.T) {
	e := identityEngine(t)
	feats := featureRow(rand.New(rand.NewSource(7)))
	rows := make([]Request, 0, inferChunk)
	decs := make([]Decision, 0, inferChunk)
	for i := 0; i <= maxIdentities; i++ {
		rows = append(rows, Request{Preset: 0.1, Features: feats, GPU: int32(i / 32), Cluster: int32(i % 32)})
		decs = append(decs, Decision{Level: 1, Reason: provenance.ReasonModel, PredInstr: 1000, Shard: -1})
		if len(rows) == inferChunk || i == maxIdentities {
			observeDecided(e, rows, decs)
			rows, decs = rows[:0], decs[:0]
		}
	}
	if n := len(e.ids); n != 1 || len(e.idIdx) != 1 {
		t.Fatalf("identity table holds %d identities (%d keys) after %d distinct ones, want 1", n, len(e.idIdx), maxIdentities+1)
	}
}
