package adapt

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/serve"
)

// dumpAdaptArtifact writes the controller's transition log (the
// /debug/adapt history) to $ADAPT_ARTIFACT_DIR so CI attaches the full
// adaptation story — refits, promotion, rollback — to the
// run. A no-op when the variable is unset.
func dumpAdaptArtifact(t *testing.T, c *Controller) {
	dir := os.Getenv("ADAPT_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("adapt artifact: %v", err)
		return
	}
	path := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+"-transitions.json")
	f, err := os.Create(path)
	if err != nil {
		t.Logf("adapt artifact: %v", err)
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c.Status().Transitions); err != nil {
		t.Logf("adapt artifact: %v", err)
		return
	}
	t.Logf("adapt artifact: transition log at %s", path)
}

// TestChaosAdaptationLifecycle is the closed-loop chaos harness: live
// keyed traffic (with injected inference panics degrading random rows)
// drifts away from the incumbent's calibration, the controller re-fits,
// shadow-scores, and promotes a candidate, then the workload shifts
// again under the canary and the controller rolls back — all while the
// decision path keeps answering. The contract:
//
//   - every request is answered with a valid level (zero errored
//     requests, even with panics injected);
//   - no decision is ever served by an unvalidated model: served records
//     only carry the incumbent's generation or, strictly between
//     promotion and rollback (plus bounded in-flight skew), the
//     promoted candidate's;
//   - the transition log tells the full story in order: shadow (whose
//     detail reports the drift the poll saw), canary, rollback.
//
// Designed to run under -race on a single-CPU box: the main goroutine
// never touches the controller mutex while traffic flows — it watches
// the loop through lock-free telemetry counters, and reads the
// promotion/rollback recorder heads from the transition log afterwards.
func TestChaosAdaptationLifecycle(t *testing.T) {
	inj := faults.New(43)
	if err := inj.Arm(serve.FaultInfer, faults.Spec{Kind: faults.KindPanic, Every: 89}); err != nil {
		t.Fatal(err)
	}
	e, err := serve.NewEngine(adaptModel(t, 90), serve.Options{Workers: 2, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableProvenance(8192, provenance.MonitorOptions{Window: 64})
	e.EnablePredFeedback()
	c, err := NewController(e, Options{
		MinRows:          64,
		ShadowMinSamples: 48,
		// The shadow and canary windows are unbounded in steps and the
		// canary needs more samples than clean traffic can deliver before
		// the test flips the workload: the test script decides when the
		// canary regresses, not a step-count race.
		ShadowMaxSteps:   1 << 30,
		CanaryMinSamples: 1 << 20,
		CanaryMaxSteps:   1 << 30,
		CooldownSteps:    2,
		Refit:            core.RefitOptions{Epochs: 150, BatchSize: 32, LearningRate: 0.02, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dumpAdaptArtifact(t, c)

	reg := e.Telemetry()
	cRefits := reg.Counter("adapt_refits_total")
	cPromotes := reg.Counter("adapt_promotions_total")
	cRollbacks := reg.Counter("adapt_rollbacks_total")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctrlDone := make(chan struct{})
	go func() {
		defer close(ctrlDone)
		c.Run(ctx, 4*time.Millisecond)
	}()

	// instrBits is the workload knob the chaos flips mid-canary.
	var instrBits atomic.Uint64
	setInstr := func(v float64) { instrBits.Store(uint64(v * 16)) }
	getInstr := func() float64 { return float64(instrBits.Load()) / 16 }
	setInstr(instrBase)

	const workers = 2
	var (
		stop      = make(chan struct{})
		wg        sync.WaitGroup
		answered  atomic.Int64
		badLevel  atomic.Int64
		shortResp atomic.Int64
	)
	levels := e.Model().Levels
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(900 + int64(g)))
			rows := make([]serve.Request, 8)
			var decs []serve.Decision
			for {
				select {
				case <-stop:
					return
				default:
				}
				instr := getInstr()
				for i := range rows {
					rows[i] = trafficRow(rng, int32(g*8+i), instr)
					rows[i].GPU = int32(g)
				}
				decs = e.DecideBatch(rows, decs[:0])
				if len(decs) != len(rows) {
					shortResp.Add(1)
					continue
				}
				for _, d := range decs {
					if d.Level < 0 || d.Level >= levels {
						badLevel.Add(1)
					}
					answered.Add(1)
				}
				time.Sleep(500 * time.Microsecond)
			}
		}(g)
	}

	// waitFor polls a lock-free condition while traffic flows.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("chaos: %s never happened: %+v", what, c.Status())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Phase 1: the incumbent drifts (its calibrator predicts ~1000
	// against ~3000 realized) and a candidate is re-fit into shadow.
	waitFor("candidate refit", func() bool { return cRefits.Load() >= 1 })
	if cPromotes.Load() == 0 && e.Generation() != 0 {
		t.Fatal("chaos: candidate serving during shadow")
	}

	// Phase 2: promotion, once shadow scoring clears its sample gate.
	waitFor("promotion", func() bool { return cPromotes.Load() >= 1 })
	if got := e.Generation(); got != 1 {
		t.Fatalf("chaos: canary serving generation %d, want 1", got)
	}

	// Phase 3: the workload shifts 10× under the canary; its live error
	// blows the shadow promise and the controller rolls back.
	setInstr(instrBase * 10)
	waitFor("rollback", func() bool { return cRollbacks.Load() >= 1 })
	close(stop)
	wg.Wait()
	cancel()
	<-ctrlDone

	if got := e.Generation(); got != 0 {
		t.Fatalf("chaos: serving generation after rollback = %d, want 0", got)
	}

	// Zero errored requests: every row of every batch answered, every
	// level valid, even with inference panics injected throughout.
	if answered.Load() == 0 {
		t.Fatal("chaos: no traffic served")
	}
	if n := shortResp.Load(); n != 0 {
		t.Fatalf("chaos: %d batches came back short", n)
	}
	if n := badLevel.Load(); n != 0 {
		t.Fatalf("chaos: %d decisions carried an out-of-range level", n)
	}

	// The transition log tells the full story, in order, and carries the
	// recorder heads bounding the canary's serving window.
	evs := c.Status().Transitions
	var story []string
	var promoteHead, rollbackHead uint64
	var shadowDetail map[string]any
	for _, ev := range evs {
		switch ev.Kind {
		case string(StateShadow), string(StateCanary):
			story = append(story, ev.Kind)
			if ev.Kind == string(StateCanary) {
				promoteHead, _ = ev.Detail["head"].(uint64)
			} else if shadowDetail == nil {
				shadowDetail = ev.Detail
			}
		case string(StateCooldown):
			if ev.Detail["restored_generation"] != nil {
				story = append(story, "rollback")
				rollbackHead, _ = ev.Detail["head"].(uint64)
			} else {
				story = append(story, ev.Kind)
			}
		}
	}
	wantOrder := []string{"shadow", "canary", "rollback"}
	pos := 0
	for _, s := range story {
		if pos < len(wantOrder) && s == wantOrder[pos] {
			pos++
		}
	}
	if pos != len(wantOrder) {
		t.Fatalf("chaos: transition history %v missing ordered subsequence %v", story, wantOrder)
	}
	// The poll that started the refit saw the drift, and says which.
	mapeHigh, _ := shadowDetail["drift_mape_high"].(bool)
	drifting, _ := shadowDetail["drifting_features"].([]string)
	if !mapeHigh && len(drifting) == 0 {
		t.Fatalf("chaos: shadow transition reports no drift: %+v", shadowDetail)
	}
	if promoteHead == 0 || rollbackHead == 0 || rollbackHead <= promoteHead {
		t.Fatalf("chaos: transition heads promote=%d rollback=%d", promoteHead, rollbackHead)
	}

	// Generation audit: walk the flight recorder. Model-path decisions
	// may carry generation 0 (incumbent, before promotion or after
	// rollback) or generation 1 — but generation 1 only in the window
	// between the promotion and rollback heads. A bounded skew on both
	// edges covers batches in flight while the swap landed (the head is
	// read moments after the swap, under the controller's step); nothing
	// may carry a generation that never passed validation.
	const inflightSlack = workers * 8 * 4
	recs := e.FlightRecorder().Snapshot(nil)
	var gen1 int
	for i := range recs {
		r := &recs[i]
		if r.Reason != provenance.ReasonModel {
			continue
		}
		switch r.ModelGen {
		case 0:
		case 1:
			gen1++
			if r.Seq+inflightSlack < promoteHead {
				t.Fatalf("chaos: record %d served by generation 1 before promotion (head %d)",
					r.Seq, promoteHead)
			}
			if r.Seq > rollbackHead+inflightSlack {
				t.Fatalf("chaos: record %d served by generation 1 after rollback (head %d + slack %d)",
					r.Seq, rollbackHead, inflightSlack)
			}
		default:
			t.Fatalf("chaos: record %d served by unvalidated generation %d", r.Seq, r.ModelGen)
		}
	}
	if gen1 == 0 {
		t.Fatal("chaos: canary never actually served")
	}

	// The log round-trips as JSON in the status /debug/adapt serves.
	buf, err := json.Marshal(c.Status())
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Transitions []map[string]any `json:"transitions"`
	}
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatalf("status not valid JSON: %v", err)
	}
	if len(decoded.Transitions) != len(evs) {
		t.Fatalf("status JSON has %d transitions, want %d", len(decoded.Transitions), len(evs))
	}
	t.Logf("chaos: %d requests answered, %d served by the canary, story %v",
		answered.Load(), gen1, story)
}
