package serve

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/provenance"
)

// TestRollbackNeverReadsDisk pins the canary escape hatch: after a swap,
// the pre-swap model is retained in memory, so rollback works even when
// every model artifact has been deleted from disk.
func TestRollbackNeverReadsDisk(t *testing.T) {
	m1 := testModel(t, 50)
	m1.Lineage = core.Lineage{Generation: 1, Source: core.SourceOffline}
	e, err := NewEngine(m1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Rollback(); err == nil {
		t.Fatal("rollback before any swap succeeded")
	}

	m2 := testModel(t, 51)
	m2.Lineage = core.Lineage{Generation: 2, Parent: 1, Source: core.SourceRefit, Refits: 1}
	path := filepath.Join(t.TempDir(), "m2.json")
	if err := m2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := e.Reload(path); err != nil {
		t.Fatal(err)
	}
	if e.Generation() != 2 {
		t.Fatalf("generation after reload = %d, want 2", e.Generation())
	}
	if p := e.prev.Load(); p != m1 {
		t.Fatal("pre-swap model not retained")
	}

	// The artifact is gone: rollback must not care.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	back, err := e.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back != m1 || e.Model() != m1 || e.Generation() != 1 {
		t.Fatalf("rollback served gen %d, want the retained gen 1", e.Generation())
	}
	// A rollback is itself reversible: the rolled-away model is retained.
	if _, err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	if e.Generation() != 2 {
		t.Fatalf("double rollback served gen %d, want 2", e.Generation())
	}
	if n := e.Metrics().Rollbacks.Load(); n != 2 {
		t.Fatalf("rollback counter = %d, want 2", n)
	}

	// The engine still decides after the round trip.
	rng := rand.New(rand.NewSource(1))
	decs := e.DecideBatch([]Request{{Preset: 0.1, Features: featureRow(rng)}}, nil)
	if len(decs) != 1 || decs[0].Reason != provenance.ReasonModel {
		t.Fatalf("post-rollback decision = %+v", decs)
	}
}

// TestModelGenStamping pins per-decision lineage attribution: every
// provenance record carries the generation of the model serving when it
// was recorded, across swaps.
func TestModelGenStamping(t *testing.T) {
	m := testModel(t, 52)
	m.Lineage = core.Lineage{Generation: 3, Source: core.SourceRefit}
	e, err := NewEngine(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableProvenance(64, provenance.MonitorOptions{})
	rng := rand.New(rand.NewSource(2))
	rows := []Request{
		{Preset: 0.1, Features: featureRow(rng)},
		{Preset: math.NaN(), Features: featureRow(rng)}, // rejected → fallback
	}
	e.DecideBatch(rows, nil)

	next := testModel(t, 53)
	next.Lineage = core.Lineage{Generation: 4, Parent: 3, Source: core.SourceRefit}
	if err := e.Swap(next); err != nil {
		t.Fatal(err)
	}
	e.DecideBatch(rows[:1], nil)

	recs := e.FlightRecorder().Snapshot(nil)
	if len(recs) != 3 {
		t.Fatalf("recorded %d decisions, want 3", len(recs))
	}
	for i, want := range []uint32{3, 3, 4} {
		if recs[i].ModelGen != want {
			t.Fatalf("record %d: ModelGen = %d, want %d (reason %s)", i, recs[i].ModelGen, want, recs[i].Reason)
		}
	}
}

// TestPredFeedback pins self-measured prediction error: a keyed client's
// next epoch stamps the realized error of the previous prediction, and a
// degraded epoch breaks the chain instead of fabricating an error.
func TestPredFeedback(t *testing.T) {
	e, err := NewEngine(testModel(t, 54), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableProvenance(64, provenance.MonitorOptions{})
	e.EnablePredFeedback()
	rng := rand.New(rand.NewSource(3))
	keyed := func() Request {
		return Request{Preset: 0.1, Features: featureRow(rng), GPU: 0, Cluster: 2}
	}

	// Epoch 1: no previous prediction, no error.
	r1 := keyed()
	d1 := e.DecideBatch([]Request{r1}, nil)[0]
	if d1.Reason != provenance.ReasonModel {
		t.Fatalf("epoch 1 reason = %s", d1.Reason)
	}

	// Epoch 2: realized instructions vs epoch 1's prediction.
	r2 := keyed()
	actual := d1.PredInstr * 1.25 // model under-predicted by 25%
	r2.Features[counters.IdxInstr] = actual
	d2 := e.DecideBatch([]Request{r2}, nil)[0]

	// An unkeyed row never participates.
	e.DecideBatch([]Request{{Preset: 0.1, Features: featureRow(rng), GPU: -1, Cluster: -1}}, nil)

	// Epoch 3 for the key is degraded (hostile preset): epoch 2's
	// prediction is still realized by epoch 3's counters, but the chain
	// breaks — degraded epoch 3 makes no model prediction, so epoch 4
	// must carry no error again.
	r3 := keyed()
	r3.Preset = math.NaN()
	actual3 := d2.PredInstr * 0.8
	r3.Features[counters.IdxInstr] = actual3
	e.DecideBatch([]Request{r3}, nil)
	e.DecideBatch([]Request{keyed()}, nil)

	recs := e.FlightRecorder().Snapshot(nil)
	if len(recs) != 5 {
		t.Fatalf("recorded %d decisions, want 5", len(recs))
	}
	if recs[0].HasPredErr {
		t.Fatal("first epoch carries a prediction error")
	}
	if !recs[1].HasPredErr {
		t.Fatal("second epoch missing the realized prediction error")
	}
	want := (d1.PredInstr - actual) / d1.PredInstr
	if math.Abs(recs[1].PredErr-want) > 1e-12 {
		t.Fatalf("PredErr = %g, want %g", recs[1].PredErr, want)
	}
	if recs[2].HasPredErr {
		t.Fatal("unkeyed row carries a prediction error")
	}
	want3 := (d2.PredInstr - actual3) / d2.PredInstr
	if !recs[3].HasPredErr || math.Abs(recs[3].PredErr-want3) > 1e-12 {
		t.Fatalf("degraded epoch PredErr = %v/%g, want true/%g (epoch 2's realized prediction)",
			recs[3].HasPredErr, recs[3].PredErr, want3)
	}
	if recs[4].HasPredErr {
		t.Fatalf("epoch after chain break carries PredErr %g", recs[4].PredErr)
	}
	// The monitor's rolling MAPE is fed from the same feedback.
	wantMAPE := (math.Abs(want) + math.Abs(want3)) / 2
	if s := e.QualityMonitor().DriftState(); s.ErrSamples != 2 || math.Abs(s.MAPE-wantMAPE) > 1e-12 {
		t.Fatalf("monitor state = %+v, want 2 samples, MAPE %g", s, wantMAPE)
	}
}

// shadowRecorder is a test ShadowObserver: it counts observations and
// flags any row that was not a model-path decision — the shadow-mode
// invariant that an unvalidated candidate only ever *watches*.
type shadowRecorder struct {
	served   atomic.Int64
	nonModel atomic.Int64
	badFeats atomic.Int64
}

func (s *shadowRecorder) ObserveServed(row Request, d Decision) {
	s.served.Add(1)
	if d.Reason != provenance.ReasonModel {
		s.nonModel.Add(1)
	}
	for _, f := range row.Features {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			s.badFeats.Add(1)
			return
		}
	}
}

// TestShadowObserverUnderSwapAndFaults runs concurrent batches with
// injected faults and hostile rows while the model is hot-swapped and the
// observer is attached/detached mid-flight: the observer must see only
// model-path decisions with valid features, and detaching must stop the
// flow without disturbing serving.
func TestShadowObserverUnderSwapAndFaults(t *testing.T) {
	inj := faults.New(17)
	if err := inj.Arm(FaultInfer, faults.Spec{Kind: faults.KindPanic, Every: 89}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(testModel(t, 55), Options{Workers: 4, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableProvenance(4096, provenance.MonitorOptions{})
	obs := &shadowRecorder{}
	e.SetShadow(obs)

	const (
		workers = 6
		batches = 50
		rowsPer = 8
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			rows := make([]Request, rowsPer)
			var decs []Decision
			for b := 0; b < batches; b++ {
				for i := range rows {
					rows[i] = Request{Preset: 0.1, Features: featureRow(rng)}
				}
				if b%7 == 3 {
					rows[b%rowsPer].Features[0] = math.Inf(1)
				}
				decs = e.DecideBatch(rows, decs[:0])
				if len(decs) != rowsPer {
					t.Errorf("worker %d batch %d: %d decisions", w, b, len(decs))
					return
				}
			}
		}(w)
	}
	// Concurrent churn: hot-swaps and observer attach/detach cycles.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := e.Swap(testModel(t, int64(60+i))); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
			if i%5 == 4 {
				e.SetShadow(nil)
				time.Sleep(100 * time.Microsecond)
				e.SetShadow(obs)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	wg.Wait()
	<-done
	if t.Failed() {
		return
	}

	if obs.served.Load() == 0 {
		t.Fatal("shadow observer saw no traffic")
	}
	if n := obs.nonModel.Load(); n != 0 {
		t.Fatalf("shadow observer saw %d non-model decisions", n)
	}
	if n := obs.badFeats.Load(); n != 0 {
		t.Fatalf("shadow observer saw %d rows with invalid features", n)
	}
	// The observer sees a subset (detach windows), never more than the
	// model-path record count.
	var modelRecs int64
	for _, rec := range e.FlightRecorder().Snapshot(nil) {
		if rec.Reason == provenance.ReasonModel {
			modelRecs++
		}
	}
	if obs.served.Load() > modelRecs {
		t.Fatalf("observer saw %d rows, more than the %d model decisions", obs.served.Load(), modelRecs)
	}
}
