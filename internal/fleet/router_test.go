package fleet

import (
	"encoding/json"
	"math/rand"
	"net"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/nn"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/serve"
)

// testModel builds a small untrained (but deterministic) model — routing
// correctness is about sharding and transport, not accuracy.
func testModel(tb testing.TB, seed int64) *core.Model {
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
	identity := func(n int) *counters.Scaler {
		s := &counters.Scaler{Mean: make([]float64, n), Std: make([]float64, n)}
		for i := range s.Std {
			s.Std[i] = 1
		}
		return s
	}
	return &core.Model{
		FeatureIdx:     counters.SelectedFive(),
		Levels:         6,
		Decision:       dec,
		Calibrator:     cal,
		DecisionScaler: identity(6),
		CalibScaler:    identity(7),
		TargetScale:    1000,
		PresetSamples:  1,
	}
}

const fleetModelSeed = 100

func featureRow(rng *rand.Rand) []float64 {
	row := make([]float64, counters.Num)
	for j := range row {
		row[j] = rng.Float64() * 2
	}
	return row
}

// startReplica runs one in-process ssmdvfsd-equivalent on loopback.
func startReplica(tb testing.TB, seed int64, opts serve.Options) (addr string, srv *serve.Server) {
	tb.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	srv, err := serve.NewServer(testModel(tb, seed), opts)
	if err != nil {
		tb.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.ServeTCP(l)
	tb.Cleanup(srv.Close)
	return l.Addr().String(), srv
}

// slowReplica is startReplica(fleetModelSeed) with every frame taking
// latency longer to answer.
func slowReplica(tb testing.TB, latency time.Duration) (addr string, srv *serve.Server) {
	tb.Helper()
	inj := faults.New(1)
	if err := inj.Arm(serve.FaultDecide, faults.Spec{Kind: faults.KindLatency, Latency: latency, Every: 1}); err != nil {
		tb.Fatal(err)
	}
	return startReplica(tb, fleetModelSeed, serve.Options{Faults: inj})
}

// startFleet runs n replicas, all serving testModel(tb, fleetModelSeed),
// behind a router. The servers come back in shard order: srvs[i] is the
// replica behind ring shard i.
func startFleet(tb testing.TB, n int, opts Options) (*Router, []*serve.Server) {
	tb.Helper()
	byAddr := make(map[string]*serve.Server, n)
	for i := 0; i < n; i++ {
		addr, srv := startReplica(tb, fleetModelSeed, serve.Options{})
		byAddr[addr] = srv
		opts.Replicas = append(opts.Replicas, addr)
	}
	rt, err := NewRouter(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	srvs := make([]*serve.Server, n)
	for i, addr := range rt.Ring().Replicas() {
		srvs[i] = byAddr[addr]
	}
	return rt, srvs
}

// TestRouterRoutesByKey checks the whole tier end to end over the wire:
// negotiation reports a router, every keyed row is answered by the model
// on the shard the ring owns its key to, and rows without identity shard
// under a synthetic key.
func TestRouterRoutesByKey(t *testing.T) {
	rt, _ := startFleet(t, 3, Options{Seed: 42})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.ServeTCP(l)

	cl, err := serve.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	hello, err := cl.Negotiate()
	if err != nil {
		t.Fatal(err)
	}
	if !hello.Router || hello.Shards != 3 || !hello.Tracing {
		t.Fatalf("negotiation = %+v, want a tracing router with 3 shards", hello)
	}

	rng := rand.New(rand.NewSource(1))
	rows := make([]serve.Request, 32)
	for i := range rows {
		rows[i] = serve.Request{
			Preset: 0.1, Features: featureRow(rng),
			GPU: int32(i / 4), Cluster: int32(i % 24),
		}
	}
	decs, err := cl.DecideKeyed(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != len(rows) {
		t.Fatalf("%d decisions for %d rows", len(decs), len(rows))
	}
	for i, d := range decs {
		if d.Reason != provenance.ReasonModel {
			t.Fatalf("row %d answered by %v, want model", i, d.Reason)
		}
		want, ok := rt.Ring().Lookup(Key(42, rows[i].GPU, rows[i].Cluster))
		if !ok || d.Shard != want {
			t.Fatalf("row %d answered by shard %d, ring owns it to %d", i, d.Shard, want)
		}
		if d.Rerouted {
			t.Fatalf("row %d marked rerouted on a healthy fleet", i)
		}
	}

	// Rows without identity ride the same frame: the router draws one
	// synthetic key per frame, so they shard (cluster = row index) and come
	// back from the model with the real shard that answered.
	unkeyed := make([]serve.Request, 4)
	for i := range unkeyed {
		unkeyed[i] = serve.Request{Preset: 0.1, Features: rows[i].Features, GPU: -1, Cluster: -1}
	}
	decs, err = cl.DecideKeyed(unkeyed)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decs {
		if d.Reason != provenance.ReasonModel || d.Shard < 0 || d.Shard >= 3 || d.Rerouted {
			t.Fatalf("unkeyed row %d = %+v, want a model answer from a real shard", i, d)
		}
	}
	if got := rt.Metrics().Rows.Load(); got != int64(len(rows)+4) {
		t.Fatalf("fleet_rows_total = %d, want %d", got, len(rows)+4)
	}
}

// TestRouterCoalesces floods a one-slot shard with single-row callers and
// checks rows actually share frames — with no linger, only because parts
// that queue up behind a busy slot leave together: far fewer dispatches
// than rows — and that those frames stay batched through the replica's
// engine into the inference backend instead of decaying to row-at-a-time.
func TestRouterCoalesces(t *testing.T) {
	// The replica takes 200 µs per frame, so the other callers' rows are
	// queued by the time the one slot comes back for more.
	addr, srv := slowReplica(t, 200*time.Microsecond)
	rt, err := NewRouter(Options{
		Replicas:      []string{addr},
		CoalesceRows:  64,
		MaxInFlight:   1,
		QueueDeadline: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			row := serve.Request{Preset: 0.1, Features: featureRow(rng), GPU: int32(w), Cluster: 0}
			for i := 0; i < perWorker; i++ {
				decs := rt.Decide([]serve.Request{row}, nil)
				if len(decs) != 1 {
					t.Errorf("worker %d: %d decisions", w, len(decs))
					return
				}
			}
		}(w)
	}
	wg.Wait()

	snap := rt.Telemetry().Snapshot()
	h, ok := snap.Histograms["fleet_batch_rows"]
	if !ok {
		t.Fatal("fleet_batch_rows histogram missing")
	}
	rows := workers * perWorker
	if h.Sum != int64(rows) {
		t.Fatalf("dispatched %d rows, want %d", h.Sum, rows)
	}
	if h.Count >= int64(rows) {
		t.Fatalf("%d batches for %d rows: nothing coalesced", h.Count, rows)
	}

	// The replica engine must have answered those frames with multi-row
	// ForwardBatch calls: every row accounted for, fewer backend calls
	// than rows, and the batch-size histogram showing calls of >= 2 rows
	// (buckets [2^(i-1), 2^i); index 1 is single-row, >= 2 is multi-row).
	met := srv.Metrics()
	if got := met.InferRowsF64.Load(); got != int64(rows) {
		t.Fatalf("backend saw %d rows, want %d", got, rows)
	}
	if got := met.InferBatchesF64.Load(); got >= int64(rows) {
		t.Fatalf("%d backend calls for %d rows: frames decayed to row-at-a-time inference", got, rows)
	}
	batchRows := srv.Telemetry().Snapshot().Histograms["serve_infer_batch_rows"].Buckets
	var multi int64
	for i := 2; i < len(batchRows); i++ {
		multi += batchRows[i]
	}
	if multi == 0 {
		t.Fatalf("no multi-row backend call recorded: batch-rows histogram %v", batchRows)
	}
}

// TestRouterChaosReplicaDeath is the chaos drill, at part granularity:
// callers send 24-row frames of four GPUs' six clusters, which span both
// replicas, one replica dies mid-load, and every row must still come back
// with a decision. The part bound for the survivor is none of the failure's
// business; the rows of the part that failed come back from the survivor
// flagged Rerouted, or shed once MaxHops is spent — never errored, and
// the reroute counter counts them in rows.
func TestRouterChaosReplicaDeath(t *testing.T) {
	const seed, dead, survivor = 9, 1, 0
	rt, srvs := startFleet(t, 2, Options{
		Seed:          seed,
		QueueDeadline: time.Minute,
		ProbeInterval: time.Hour, // keep the dead replica dead
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.ServeTCP(l)
	// home answers "who owned this key before anything died".
	home, err := NewRing(RingOptions{Replicas: rt.Ring().Replicas(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker, frameRows = 6, 40, 24
	var answered, rerouted, shed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := serve.Dial(l.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			rows := make([]serve.Request, frameRows)
			for i := 0; i < perWorker; i++ {
				for c := range rows {
					rows[c] = serve.Request{
						Preset: 0.1, Features: featureRow(rng),
						GPU: int32(4*(w*perWorker+i) + c/6), Cluster: int32(c % 6),
					}
				}
				decs, err := cl.DecideKeyed(rows)
				if err != nil || len(decs) != frameRows {
					t.Errorf("worker %d frame %d: %d decisions, err %v", w, i, len(decs), err)
					return
				}
				for c, d := range decs {
					owner, _ := home.Lookup(Key(seed, rows[c].GPU, rows[c].Cluster))
					switch {
					case d.Reason == provenance.ReasonShed:
						shed.Add(1)
						if owner != dead || d.Shard != -1 {
							t.Errorf("row homed on shard %d shed as %+v; only the dead replica's rows may shed", owner, d)
						}
					case d.Reason != provenance.ReasonModel:
						t.Errorf("row answered by %v", d.Reason)
					case owner == survivor && (d.Shard != survivor || d.Rerouted):
						t.Errorf("survivor's row came back %+v: a sibling part's failure leaked into it", d)
					case d.Rerouted && d.Shard != survivor:
						t.Errorf("rerouted row answered by shard %d, want the survivor", d.Shard)
					}
					if d.Rerouted {
						rerouted.Add(1)
					}
				}
				answered.Add(frameRows)
				if w == 0 && i == perWorker/3 {
					srvs[dead].Close() // kill a replica mid-load
				}
			}
		}(w)
	}
	wg.Wait()

	if got := answered.Load(); got != workers*perWorker*frameRows {
		t.Fatalf("answered %d of %d rows", got, workers*perWorker*frameRows)
	}
	if rt.Metrics().Down.Load() == 0 {
		t.Fatal("replica death never detected")
	}
	if rt.Ring().Healthy() != 1 {
		t.Fatalf("healthy = %d after one death, want 1", rt.Ring().Healthy())
	}
	// Only a failed dispatch takes a replica out of the ring here (the
	// prober is parked), and the part on that dispatch had a hop to spend.
	// With MaxHops 1 a row is rerouted at most once, so the rows flagged
	// and the rows counted are the same rows.
	if got := rt.Metrics().Rerouted.Load(); got == 0 || got != rerouted.Load() {
		t.Fatalf("fleet_rerouted_rows_total = %d, callers saw %d rerouted rows (want equal, > 0)", got, rerouted.Load())
	}
	if got := rt.Metrics().ShedTotal(); got != shed.Load() {
		t.Fatalf("shed counters = %d rows, callers saw %d", got, shed.Load())
	}
}

// TestRouterRecovery kills a replica, waits for the prober to mark it
// down, restarts it on the same address, and checks keys move home.
func TestRouterRecovery(t *testing.T) {
	addr, srv := startReplica(t, 1, serve.Options{})
	rt, err := NewRouter(Options{
		Replicas:      []string{addr},
		ProbeInterval: 5 * time.Millisecond,
		QueueDeadline: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	rng := rand.New(rand.NewSource(2))
	row := serve.Request{Preset: 0.1, Features: featureRow(rng), GPU: 1, Cluster: 1}
	if decs := rt.Decide([]serve.Request{row}, nil); decs[0].Reason != provenance.ReasonModel {
		t.Fatalf("healthy fleet answered %v", decs[0].Reason)
	}

	srv.Close()
	// Drive until the death is noticed; these shed (no replica left).
	deadline := time.Now().Add(5 * time.Second)
	for rt.Ring().Healthy() != 0 {
		rt.Decide([]serve.Request{row}, nil)
		if time.Now().After(deadline) {
			t.Fatal("replica death never detected")
		}
	}
	if decs := rt.Decide([]serve.Request{row}, nil); decs[0].Reason != provenance.ReasonShed || decs[0].Shard != -1 {
		t.Fatalf("decision with no replicas = %+v, want shed", decs[0])
	}

	// Resurrect on the same address; the prober must restore the shard.
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	srv2, err := serve.NewServer(testModel(t, 1), serve.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	go srv2.ServeTCP(l)
	defer srv2.Close()

	for deadline := time.Now().Add(5 * time.Second); rt.Ring().Healthy() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("replica recovery never detected")
		}
		time.Sleep(time.Millisecond)
	}
	if rt.Metrics().Up.Load() == 0 {
		t.Fatal("fleet_replica_up_total not incremented")
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		if decs := rt.Decide([]serve.Request{row}, nil); decs[0].Reason == provenance.ReasonModel {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("model path never came back after recovery")
		}
	}
}

// TestRouterShedsUnderOverload arms a latency fault on the only replica
// and floods the router with a tiny queue: admission control must shed
// (fallback answers) instead of queueing past the deadline.
func TestRouterShedsUnderOverload(t *testing.T) {
	addr, _ := slowReplica(t, 20*time.Millisecond)
	rt, err := NewRouter(Options{
		Replicas:      []string{addr},
		CoalesceRows:  4,
		MaxInFlight:   1,
		QueueLen:      4,
		QueueDeadline: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const workers, perWorker = 8, 10
	var wg sync.WaitGroup
	var sheds atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				row := serve.Request{Preset: 0.1, Features: featureRow(rng), GPU: int32(w), Cluster: int32(i)}
				decs := rt.Decide([]serve.Request{row}, nil)
				if len(decs) != 1 {
					t.Errorf("worker %d: %d decisions", w, len(decs))
					return
				}
				if decs[0].Reason == provenance.ReasonShed {
					sheds.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if sheds.Load() == 0 || rt.Metrics().ShedTotal() == 0 {
		t.Fatalf("no sheds under a 20 ms-per-batch replica with a 2 ms deadline (counter=%d)", rt.Metrics().ShedTotal())
	}
}

// benchFleet measures router throughput in frames of frameRows rows —
// from 8 callers per CPU for single rows, one per CPU for whole frames —
// and reports how many rows each dispatch carried.
func benchFleet(b *testing.B, replicas, frameRows, coalesceRows int) {
	opts := Options{
		CoalesceRows:  coalesceRows,
		QueueLen:      4096,
		QueueDeadline: time.Second,
	}
	for i := 0; i < replicas; i++ {
		addr, _ := startReplica(b, 7, serve.Options{Workers: 4})
		opts.Replicas = append(opts.Replicas, addr)
	}
	rt, err := NewRouter(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()

	rng := rand.New(rand.NewSource(7))
	feats := featureRow(rng)
	var seq atomic.Int64
	if frameRows == 1 {
		b.SetParallelism(8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int32(seq.Add(1))
		rows := make([]serve.Request, frameRows)
		for c := range rows {
			rows[c] = serve.Request{Preset: 0.1, Features: feats, GPU: id, Cluster: int32(c)}
		}
		var decs []serve.Decision
		for pb.Next() {
			decs = rt.Decide(rows, decs[:0])
			if decs[0].Reason == provenance.ReasonShed {
				b.Error("shed under benchmark load")
				return
			}
		}
	})
	b.StopTimer()
	if h := rt.Telemetry().Snapshot().Histograms["fleet_batch_rows"]; h.Count > 0 {
		b.ReportMetric(float64(h.Sum)/float64(h.Count), "rows/dispatch")
	}
}

// BenchmarkFleet_CoalescedThroughput vs _SingleRow quantifies the win of
// multi-row v3 frames: same router, same replica, same single-row
// callers; the only difference is whether rows queued behind busy slots
// may share a frame.
func BenchmarkFleet_CoalescedThroughput(b *testing.B) { benchFleet(b, 1, 1, 64) }

func BenchmarkFleet_SingleRowThroughput(b *testing.B) { benchFleet(b, 1, 1, 1) }

// BenchmarkFleet_GPUFrame is the shape the paper serves: one GPU's 24
// clusters asked for together, over 2 replicas. An iteration is a frame;
// rows/dispatch of 24 means each frame went whole to the replica that
// owns its GPU, and allocs/op counts the replicas' side of the loopback
// too.
func BenchmarkFleet_GPUFrame(b *testing.B) { benchFleet(b, 2, 24, 64) }

// TestRouterModelLineage checks the fleet surfaces per-replica model
// lineage: the prober refreshes the generation each replica advertises
// in hello negotiation, /healthz reports it per replica, and a replica
// whose generation trails the newest one in the fleet is flagged stale
// — the signature of an online promotion that missed it.
func TestRouterModelLineage(t *testing.T) {
	// Replica 0 serves generation 0; replica 1 serves generation 3, as
	// if three online refits were promoted there but never here.
	mOld := testModel(t, 100)
	mNew := testModel(t, 101)
	mNew.Lineage = core.Lineage{Generation: 3, Parent: 2, Source: core.SourceRefit, Refits: 3}

	var addrs []string
	for _, m := range []*core.Model{mOld, mNew} {
		srv, err := serve.NewServer(m, serve.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.ServeTCP(l)
		t.Cleanup(srv.Close)
		addrs = append(addrs, l.Addr().String())
	}

	rt, err := NewRouter(Options{
		Replicas:      addrs,
		Seed:          7,
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	// The ring orders shards by its own hash, not by the Replicas slice;
	// expectations key on address.
	wantGen := map[string]int64{addrs[0]: 0, addrs[1]: 3}

	// The prober learns generations on its own — no traffic needed.
	deadline := time.Now().Add(5 * time.Second)
	for rt.shards[0].gen.Load() < 0 || rt.shards[1].gen.Load() < 0 {
		if time.Now().After(deadline) {
			t.Fatalf("prober never learned generations: shard0=%d shard1=%d",
				rt.shards[0].gen.Load(), rt.shards[1].gen.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, s := range rt.shards {
		if g := s.gen.Load(); g != wantGen[s.addr] {
			t.Fatalf("shard %d (%s): generation = %d, want %d", s.idx, s.addr, g, wantGen[s.addr])
		}
	}

	// /healthz reports lineage and flags the trailing replica.
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz = %d: %s", rec.Code, rec.Body.String())
	}
	var health struct {
		Healthy  int `json:"healthy_replicas"`
		Replicas []struct {
			Shard      int    `json:"shard"`
			Addr       string `json:"addr"`
			Healthy    bool   `json:"healthy"`
			Generation int    `json:"generation"`
			Stale      bool   `json:"stale"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	if health.Healthy != 2 || len(health.Replicas) != 2 {
		t.Fatalf("healthz = %+v, want 2 healthy replicas", health)
	}
	for _, r := range health.Replicas {
		want := int(wantGen[r.Addr])
		wantStale := want == 0 // generation 0 trails the fleet max of 3
		if r.Generation != want || r.Stale != wantStale {
			t.Errorf("shard %d (%s): generation=%d stale=%v, want %d/%v",
				r.Shard, r.Addr, r.Generation, r.Stale, want, wantStale)
		}
	}

	// The per-shard gauge mirrors what /healthz reports.
	snap := rt.Metrics().Registry().Snapshot()
	for _, s := range rt.shards {
		id := `fleet_replica_generation{shard="` + strconv.Itoa(s.idx) + `"}`
		want := float64(wantGen[s.addr])
		if got, ok := snap.Gauges[id]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", id, got, ok, want)
		}
	}
}
