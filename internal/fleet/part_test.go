package fleet

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/serve"
	"ssmdvfs/internal/telemetry"
)

// The router routes by part — the rows of one frame that one replica
// owns. These tests pin what that must not change (the decisions, their
// order, who answers) and what it is for (one dispatch per owner, no
// allocation), and walk a part through every way it can end.

// reference is the decision function the fleet must reproduce: an
// in-process engine over the model every startFleet replica serves.
func reference(tb testing.TB) *serve.Engine {
	tb.Helper()
	eng, err := serve.NewEngine(testModel(tb, fleetModelSeed), serve.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// gpuFrame is one GPU's clusters 0..n-1 with fresh feature rows.
func gpuFrame(rng *rand.Rand, gpu int32, n int) []serve.Request {
	rows := make([]serve.Request, n)
	for c := range rows {
		rows[c] = serve.Request{Preset: 0.05 + 0.3*rng.Float64(), Features: featureRow(rng), GPU: gpu, Cluster: int32(c)}
	}
	return rows
}

// checkAgainst fails unless got answers rows exactly as want does, in
// row order, each keyed row from the shard the ring owns its key to.
func checkAgainst(t *testing.T, rt *Router, rows []serve.Request, got, want []serve.Decision) {
	t.Helper()
	if len(got) != len(rows) {
		t.Fatalf("%d decisions for %d rows", len(got), len(rows))
	}
	for i, d := range got {
		w := want[i]
		if d.Level != w.Level || d.PredInstr != w.PredInstr || d.Reason != w.Reason {
			t.Fatalf("row %d of %d: routed (level %d, pred %v, %v), direct (level %d, pred %v, %v)",
				i, len(rows), d.Level, d.PredInstr, d.Reason, w.Level, w.PredInstr, w.Reason)
		}
		if d.Rerouted {
			t.Fatalf("row %d marked rerouted on a healthy fleet", i)
		}
		if rows[i].GPU < 0 || rows[i].Cluster < 0 {
			if d.Shard < 0 || d.Shard >= rt.NumShards() {
				t.Fatalf("unkeyed row %d answered by shard %d", i, d.Shard)
			}
			continue
		}
		if owner, _ := rt.Ring().Lookup(Key(rt.Ring().Seed(), rows[i].GPU, rows[i].Cluster)); d.Shard != owner {
			t.Fatalf("row %d answered by shard %d, ring owns it to %d", i, d.Shard, owner)
		}
	}
}

// TestRouterDecideMatchesDirect: splitting a frame by owner, sending the
// parts their separate ways and writing the answers back by index is
// invisible — every row gets the decision a direct Engine.DecideBatch
// gives it, in its own slot — and pooled frames and parts never carry
// one caller's rows or answers into another's.
func TestRouterDecideMatchesDirect(t *testing.T) {
	ref := reference(t)
	for _, replicas := range []int{2, 3} {
		rt, _ := startFleet(t, replicas, Options{Seed: 5, QueueLen: 4096, QueueDeadline: time.Minute})
		rng := rand.New(rand.NewSource(int64(replicas)))

		// ownedByZero draws keys until one lands on shard 0.
		ownedByZero := func() (gpu, cluster int32) {
			for {
				gpu, cluster = rng.Int31n(1<<20), rng.Int31n(24)
				if owner, _ := rt.Ring().Lookup(Key(5, gpu, cluster)); owner == 0 {
					return gpu, cluster
				}
			}
		}
		for _, n := range []int{1, 24, 65, serve.MaxBatch} {
			shapes := []struct {
				name string
				key  func(i int, r *serve.Request)
			}{
				// Four GPUs' worth of keys: past 96 rows every key repeats.
				{"duplicate keys", func(_ int, r *serve.Request) { r.GPU, r.Cluster = rng.Int31n(4), rng.Int31n(24) }},
				{"one owner", func(_ int, r *serve.Request) { r.GPU, r.Cluster = ownedByZero() }},
				{"unkeyed mixed in", func(i int, r *serve.Request) {
					switch i % 3 {
					case 0:
						r.GPU, r.Cluster = -1, -1
					case 1:
						r.GPU, r.Cluster = rng.Int31n(1<<20), -1 // half an identity is none
					}
				}},
			}
			for _, shape := range shapes {
				rows := gpuFrame(rng, int32(n), n)
				for i := range rows {
					shape.key(i, &rows[i])
				}
				before := rt.Telemetry().Snapshot().Histograms["fleet_batch_rows"]
				got := rt.Decide(rows, nil)
				checkAgainst(t, rt, rows, got, ref.DecideBatch(rows, nil))
				if shape.name == "one owner" {
					after := rt.Telemetry().Snapshot().Histograms["fleet_batch_rows"]
					if after.Count-before.Count != 1 || after.Sum-before.Sum != int64(n) {
						t.Fatalf("%d rows all owned by shard 0 took %d dispatches of %d rows in total, want 1 of %d",
							n, after.Count-before.Count, after.Sum-before.Sum, n)
					}
				}
			}
		}

		// Cross-talk: every caller owns a distinct set of frames (distinct
		// features, so distinct PredInstr) of assorted sizes, and appends
		// after a prefix it must get back untouched.
		const callers, perCaller, framesEach = 8, 300, 5
		prefix := []serve.Decision{{Level: -7, PredInstr: -1}, {Level: -8, PredInstr: -2}}
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			crng := rand.New(rand.NewSource(int64(1000*replicas + c)))
			frames := make([][]serve.Request, framesEach)
			wants := make([][]serve.Decision, framesEach)
			for k := range frames {
				frames[k] = gpuFrame(crng, int32(c*framesEach+k), 1+crng.Intn(40))
				if k == 0 {
					frames[k][0].GPU = -1 // each caller sends unkeyed rows too
				}
				wants[k] = ref.DecideBatch(frames[k], nil)
			}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var decs []serve.Decision
				for i := 0; i < perCaller && !t.Failed(); i++ {
					k := (i + c) % framesEach
					decs = rt.Decide(frames[k], append(decs[:0], prefix...))
					if decs[0] != prefix[0] || decs[1] != prefix[1] {
						t.Errorf("caller %d: Decide overwrote the decisions it was appending to: %+v", c, decs[:2])
						return
					}
					if len(decs) != len(prefix)+len(frames[k]) {
						t.Errorf("caller %d: %d decisions appended for %d rows", c, len(decs)-len(prefix), len(frames[k]))
						return
					}
					for j, d := range decs[len(prefix):] {
						if w := wants[k][j]; d.Level != w.Level || d.PredInstr != w.PredInstr || d.Reason != w.Reason {
							t.Errorf("caller %d frame %d row %d: got %+v, its own answer is %+v", c, k, j, d, w)
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
		if shed := rt.Metrics().ShedTotal(); shed != 0 {
			t.Fatalf("%d rows shed on a healthy, roomy fleet", shed)
		}
	}
}

// TestRouterClientsProject: the router's callers hand it full rows and its
// front-end asks for them, but each dispatch slot's client learns on its
// own connection what its replica reads. Once every slot has had a frame
// answered, frames to a replica on the compressed feature set carry its
// eight columns; frames to the replica beside it, which has a flight
// recorder armed, stay full width; neither replica ever sends one back;
// and the caller sees what a direct engine decides throughout, the
// full-width first frames included.
func TestRouterClientsProject(t *testing.T) {
	plainAddr, plain := startReplica(t, fleetModelSeed, serve.Options{})
	armedAddr, armed := startReplica(t, fleetModelSeed, serve.Options{})
	armed.EnableProvenance(64, provenance.MonitorOptions{})
	rt, err := NewRouter(Options{Replicas: []string{plainAddr, armedAddr}, QueueDeadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ref := reference(t)
	rng := rand.New(rand.NewSource(11))
	var got, want []serve.Decision
	for round := 0; round < 64; round++ {
		rows := gpuFrame(rng, int32(round), 24)
		got = rt.Decide(rows, got[:0])
		want = ref.DecideBatch(rows, want[:0])
		checkAgainst(t, rt, rows, got, want)
	}

	gauges := rt.Telemetry().Snapshot().Gauges
	for shard, addr := range rt.Ring().Replicas() {
		srv, wantCols := plain, 8.0
		if addr == armedAddr {
			srv, wantCols = armed, counters.Num
		}
		if srv.Metrics().Decisions.Load() == 0 {
			t.Fatalf("shard %d (%s) saw no traffic", shard, addr)
		}
		if got := gauges[telemetry.MetricID("fleet_shard_request_columns", "shard", strconv.Itoa(shard))]; got != wantCols {
			t.Errorf("shard %d (%s): frames carry %v columns, want %v", shard, addr, got, wantCols)
		}
		if n := srv.Metrics().ColumnResends.Load(); n != 0 {
			t.Errorf("shard %d (%s) sent %d frames back for columns", shard, addr, n)
		}
	}
	if got := gauges["serve_request_columns"]; got != counters.Num {
		t.Errorf("router front-end asks for %v columns, want all %d", got, counters.Num)
	}
}

// TestRouterSplitsOncePerOwner is the point of routing by part: a frame
// through an idle router costs one dispatch per replica that owns any of
// its rows — not one per row, and not a coalescer's guess in between.
// Each frame carries four GPUs' six clusters, so frames span both
// replicas.
func TestRouterSplitsOncePerOwner(t *testing.T) {
	rt, _ := startFleet(t, 2, Options{Seed: 3, QueueDeadline: time.Minute})
	rng := rand.New(rand.NewSource(3))
	const frames, gpus, clusters = 50, 4, 6
	const frameRows = gpus * clusters
	var wantDispatches int64
	for g := 0; g < frames; g++ {
		var rows []serve.Request
		for k := 0; k < gpus; k++ {
			rows = append(rows, gpuFrame(rng, int32(g*gpus+k), clusters)...)
		}
		owners := map[int]bool{}
		for _, r := range rows {
			owner, _ := rt.Ring().Lookup(Key(3, r.GPU, r.Cluster))
			owners[owner] = true
		}
		wantDispatches += int64(len(owners))
		rt.Decide(rows, nil)
	}
	h := rt.Telemetry().Snapshot().Histograms["fleet_batch_rows"]
	if h.Count != wantDispatches || h.Sum != frames*frameRows {
		t.Fatalf("%d frames of %d rows took %d dispatches carrying %d rows, want %d (one per owner) carrying %d",
			frames, frameRows, h.Count, h.Sum, wantDispatches, frames*frameRows)
	}
	if wantDispatches <= frames {
		t.Fatalf("frames never spanned both replicas (%d owners over %d frames): the test shows nothing", wantDispatches, frames)
	}
}

// TestRouterGPUFrameIsOneDispatch is the point of keying the ring by GPU:
// one GPU's 24-row epoch frame through an idle router is one dispatch of
// all 24 rows to the replica that owns the GPU, however many replicas
// the fleet has.
func TestRouterGPUFrameIsOneDispatch(t *testing.T) {
	const frames, frameRows = 20, 24
	for _, replicas := range []int{2, 3, 8} {
		rt, _ := startFleet(t, replicas, Options{Seed: 3, QueueDeadline: time.Minute})
		rng := rand.New(rand.NewSource(int64(replicas)))
		owners := map[int]bool{}
		for g := 0; g < frames; g++ {
			rows := gpuFrame(rng, int32(g), frameRows)
			owner, _ := rt.Ring().Lookup(Key(3, int32(g), 0))
			owners[owner] = true
			before := rt.Telemetry().Snapshot().Histograms["fleet_batch_rows"]
			for i, d := range rt.Decide(rows, nil) {
				if d.Reason != provenance.ReasonModel || d.Shard != owner {
					t.Fatalf("%d replicas, GPU %d cluster %d: %+v, want a model answer from shard %d", replicas, g, i, d, owner)
				}
			}
			after := rt.Telemetry().Snapshot().Histograms["fleet_batch_rows"]
			if n, sum := after.Count-before.Count, after.Sum-before.Sum; n != 1 || sum != frameRows {
				t.Fatalf("%d replicas, GPU %d: a %d-row frame took %d dispatches carrying %d rows, want 1 carrying %d",
					replicas, g, frameRows, n, sum, frameRows)
			}
		}
		if len(owners) < 2 {
			t.Fatalf("%d replicas: all %d GPUs on one shard, the test shows nothing", replicas, frames)
		}
	}
}

// TestRouterDecideZeroAlloc: a warm 24-row Decide allocates nothing —
// not in the router (pooled frame and parts, slot-owned scratch) and,
// since AllocsPerRun counts every goroutine, not in the two in-process
// replicas' transport either.
func TestRouterDecideZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its caches under the race detector")
	}
	rt, _ := startFleet(t, 2, Options{Seed: 3, QueueDeadline: time.Minute})
	rows := gpuFrame(rand.New(rand.NewSource(4)), 7, 24)
	decs := make([]serve.Decision, 0, len(rows))
	for i := 0; i < 64; i++ {
		decs = rt.Decide(rows, decs[:0]) // dial every slot, grow every buffer
	}
	allocs := testing.AllocsPerRun(500, func() { decs = rt.Decide(rows, decs[:0]) })
	if allocs != 0 {
		t.Fatalf("warm 24-row Decide allocates %.2f objects/op, want 0", allocs)
	}
	if decs[0].Reason != provenance.ReasonModel {
		t.Fatalf("measured a degraded path: %+v", decs[0])
	}
}

// waitFor polls cond, failing the test if it does not hold in time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRouterAdmissionCountsRows: QueueLen bounds rows, a part is admitted
// or shed whole, and an empty queue admits any part.
func TestRouterAdmissionCountsRows(t *testing.T) {
	slow, _ := slowReplica(t, 250*time.Millisecond)
	rt, err := NewRouter(Options{
		Replicas:      []string{slow},
		MaxInFlight:   1,
		QueueLen:      8,
		QueueDeadline: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rng := rand.New(rand.NewSource(11))
	s := rt.shards[0]

	var wg sync.WaitGroup
	results := make(chan []serve.Decision, 4)
	send := func(gpu int32, n int) {
		rows := gpuFrame(rng, gpu, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- rt.Decide(rows, nil)
		}()
	}

	// 24 rows into an empty 8-row queue: admitted — refusing it would
	// refuse it forever — and straight onto the wire, where it keeps the
	// only slot busy while the rest plays out.
	send(0, 24)
	waitFor(t, "the oversize part to reach the wire", func() bool {
		return rt.Metrics().Rows.Load() == 24 && s.queued.Load() == 0
	})
	// 4 + 4 rows fill the queue exactly.
	send(1, 4)
	waitFor(t, "the first 4-row part to queue", func() bool { return rt.Metrics().Rows.Load() == 28 })
	send(2, 4)
	waitFor(t, "the second 4-row part to queue", func() bool { return rt.Metrics().Rows.Load() == 32 })
	if got := s.queued.Load(); got != 8 {
		t.Fatalf("queued = %d rows with two 4-row parts waiting, want 8", got)
	}
	// 2 more do not fit: the part sheds whole, at once, by the fallback.
	shed := rt.Decide(gpuFrame(rng, 3, 2), nil)
	for i, d := range shed {
		if d.Reason != provenance.ReasonShed || d.Shard != -1 {
			t.Fatalf("row %d of the part that did not fit = %+v, want shed", i, d)
		}
	}
	if got := rt.metrics.shed[ShedQueueFull].Load(); got != 2 || rt.Metrics().ShedTotal() != 2 {
		t.Fatalf("queue-full sheds = %d rows (all causes %d), want 2", got, rt.Metrics().ShedTotal())
	}

	wg.Wait()
	close(results)
	for decs := range results {
		for i, d := range decs {
			if d.Reason != provenance.ReasonModel {
				t.Fatalf("admitted frame of %d rows: row %d = %+v, want model", len(decs), i, d)
			}
		}
	}
	const offered, admitted = 24 + 4 + 4 + 2, 24 + 4 + 4
	if got := rt.Metrics().Rows.Load() + rt.Metrics().ShedTotal(); got != offered {
		t.Fatalf("fleet_rows_total + shed rows = %d, want the %d rows offered", got, offered)
	}
	snap := rt.Telemetry().Snapshot()
	// The SLO's denominator moved by rows: 2 bad of 34, not 1 of 4 parts.
	if got, want := snap.Gauges[`slo_bad_ratio{slo="fleet-shed"}`], 2.0/offered; got != want {
		t.Fatalf("slo_bad_ratio = %v, want %v (rows shed / rows offered)", got, want)
	}
	// The two parts that waited left together the moment the slot came back.
	if h := snap.Histograms["fleet_batch_rows"]; h.Count != 2 || h.Sum != admitted {
		t.Fatalf("%d dispatches carrying %d rows, want 2 carrying %d", h.Count, h.Sum, admitted)
	}
}

// TestRouterCloseAnswersInFlightFrames: Close with multi-part frames
// queued and on the wire returns every caller with every slot filled —
// by the replica for the parts already sent, by the fallback (cause
// shutdown) for the parts still queued.
func TestRouterCloseAnswersInFlightFrames(t *testing.T) {
	slowA, _ := slowReplica(t, 100*time.Millisecond)
	slowB, _ := slowReplica(t, 100*time.Millisecond)
	rt, err := NewRouter(Options{
		Replicas:      []string{slowA, slowB},
		Seed:          3,
		MaxInFlight:   1,
		QueueDeadline: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const callers, frameRows = 6, 24
	rng := rand.New(rand.NewSource(12))
	unset := serve.Decision{Level: -99}
	results := make(chan []serve.Decision, callers)
	for c := 0; c < callers; c++ {
		rows := gpuFrame(rng, int32(c), frameRows)
		go func() {
			decs := make([]serve.Decision, frameRows)
			for i := range decs {
				decs[i] = unset
			}
			results <- rt.Decide(rows, decs[:0])
		}()
	}
	waitFor(t, "every frame to be admitted", func() bool { return rt.Metrics().Rows.Load() == callers*frameRows })
	rt.Close()

	var shed int64
	for c := 0; c < callers; c++ {
		decs := <-results
		if len(decs) != frameRows {
			t.Fatalf("caller got %d decisions for %d rows", len(decs), frameRows)
		}
		for i, d := range decs {
			switch {
			case d == unset:
				t.Fatalf("row %d never answered", i)
			case d.Reason == provenance.ReasonShed:
				shed++
			case d.Reason != provenance.ReasonModel:
				t.Fatalf("row %d = %+v", i, d)
			}
		}
	}
	// One slot per shard was on the wire; everything behind it was queued.
	if got := rt.metrics.shed[ShedShutdown].Load(); got == 0 || got != shed || rt.Metrics().ShedTotal() != shed {
		t.Fatalf("shutdown sheds = %d rows (all causes %d), callers saw %d shed rows (want equal, > 0)",
			got, rt.Metrics().ShedTotal(), shed)
	}
	// A closed router still answers, from the fallback.
	for i, d := range rt.Decide(gpuFrame(rng, 99, frameRows), nil) {
		if d.Reason != provenance.ReasonShed {
			t.Fatalf("row %d after Close = %+v, want shed", i, d)
		}
	}
}
