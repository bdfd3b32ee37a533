package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"ssmdvfs/internal/telemetry"
)

func TestMapOrderStableAtAnyWorkerCount(t *testing.T) {
	want := make([]int, 64)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{0, 1, 2, 7, 64, 200} {
		got, err := Map(context.Background(), len(want), Options{Name: "t", Workers: workers},
			func(_ context.Context, s Shard) (int, error) {
				return s.Index * s.Index, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapSeedsDeterministicAcrossWorkerCounts(t *testing.T) {
	seeds := func(workers int) []int64 {
		out, err := Map(context.Background(), 32, Options{Workers: workers, Seed: 42},
			func(_ context.Context, s Shard) (int64, error) { return s.Seed, nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := seeds(1)
	parallel := seeds(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("shard %d seed differs: %d vs %d", i, serial[i], parallel[i])
		}
	}
	// Distinct shards must get distinct seeds.
	seen := map[int64]int{}
	for i, s := range serial {
		if j, dup := seen[s]; dup {
			t.Fatalf("shards %d and %d share seed %d", j, i, s)
		}
		seen[s] = i
	}
}

func TestMapErrorCarriesShardIdentity(t *testing.T) {
	boom := errors.New("boom")
	_, err := Map(context.Background(), 16, Options{Name: "fleet", Workers: 4},
		func(_ context.Context, s Shard) (int, error) {
			if s.Index == 5 {
				return 0, fmt.Errorf("kernel five: %w", boom)
			}
			return s.Index, nil
		})
	if err == nil {
		t.Fatal("shard error swallowed")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *ShardError", err)
	}
	if se.Name != "fleet" || se.Index != 5 {
		t.Fatalf("shard identity lost: %+v", se)
	}
	if !errors.Is(err, boom) {
		t.Fatal("wrapped cause lost")
	}
}

func TestMapFirstErrorStopsFleet(t *testing.T) {
	var ran atomic.Int64
	// A shard after 0 holds its worker until shard 0's failure cancels
	// the pool, so the other worker cannot run through the remaining
	// shards before shard 0 has run.
	_, err := Map(context.Background(), 1000, Options{Workers: 2},
		func(ctx context.Context, s Shard) (int, error) {
			ran.Add(1)
			if s.Index == 0 {
				return 0, errors.New("early failure")
			}
			<-ctx.Done()
			return 0, nil
		})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("fleet ran all %d shards despite early failure", n)
	}
}

func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 8, Options{Workers: 2},
		func(_ context.Context, s Shard) (int, error) { return s.Index, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled parent returned %v, want context.Canceled", err)
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 0, Options{},
		func(_ context.Context, s Shard) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("empty map returned (%v, %v)", got, err)
	}
}

func TestMapTelemetryAndSpans(t *testing.T) {
	reg := telemetry.NewRegistry()
	var spansBuf bytes.Buffer
	tracer := telemetry.NewTracer(&spansBuf)
	_, err := Map(context.Background(), 10, Options{
		Name: "dg", Workers: 3, Telemetry: reg, Tracer: tracer,
	}, func(_ context.Context, s Shard) (int, error) { return s.Index, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if n := snap.Counters[telemetry.MetricID("runner_shards_total", "runner", "dg")]; n != 10 {
		t.Fatalf("runner_shards_total = %d, want 10", n)
	}
	if w := snap.Gauges[telemetry.MetricID("runner_workers", "runner", "dg")]; w != 3 {
		t.Fatalf("runner_workers = %g, want 3", w)
	}
	if h := snap.Histograms[telemetry.MetricID("runner_shard_us", "runner", "dg")]; h.Count != 10 {
		t.Fatalf("runner_shard_us count = %d, want 10", h.Count)
	}
	if h := snap.Histograms[telemetry.MetricID("runner_wall_us", "runner", "dg")]; h.Count != 1 {
		t.Fatalf("runner_wall_us count = %d, want 1", h.Count)
	}

	spans, err := telemetry.ReadSpans(&spansBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 10 {
		t.Fatalf("got %d spans, want 10", len(spans))
	}
	shardSeen := map[string]bool{}
	for _, sp := range spans {
		if sp.Name != "dg:shard" || sp.Cat != "runner" {
			t.Fatalf("unexpected span %+v", sp)
		}
		if sp.TID < 1 || sp.TID > 3 {
			t.Fatalf("span worker track %d out of range [1,3]", sp.TID)
		}
		shardSeen[sp.Attrs["shard"]] = true
	}
	if len(shardSeen) != 10 {
		t.Fatalf("spans cover %d distinct shards, want 10", len(shardSeen))
	}
}

// tree submits a binary tree of tasks of the given depth under each of n
// roots and returns, per root, how many tasks ran under its Index.
func tree(t *testing.T, n, depth, workers int) []int64 {
	t.Helper()
	ran := make([]atomic.Int64, n)
	var node func(depth int) func(context.Context, *Task) error
	node = func(depth int) func(context.Context, *Task) error {
		return func(_ context.Context, task *Task) error {
			ran[task.Index].Add(1)
			if depth > 0 {
				task.Go(node(depth - 1))
				task.Go(node(depth - 1))
			}
			return nil
		}
	}
	if err := Tasks(context.Background(), n, Options{Workers: workers}, node(depth)); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	out := make([]int64, n)
	for i := range ran {
		out[i] = ran[i].Load()
	}
	return out
}

func TestTasksRunEverySubmittedTask(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for i, n := range tree(t, 5, 6, workers) {
			if n != 127 { // 2^7 - 1 nodes
				t.Fatalf("workers=%d: %d tasks ran under root %d, want 127", workers, n, i)
			}
		}
	}
}

// TestTasksNewestFirst: one worker walks the roots in index order and each
// root's tree depth first — the newest submission ahead of older ones and
// of every root not yet started.
func TestTasksNewestFirst(t *testing.T) {
	var order []string
	visit := func(name string, children ...func(context.Context, *Task) error) func(context.Context, *Task) error {
		return func(_ context.Context, task *Task) error {
			order = append(order, fmt.Sprintf("%d%s", task.Index, name))
			for _, c := range children {
				task.Go(c)
			}
			return nil
		}
	}
	root := visit("", visit("a", visit("a1"), visit("a2")), visit("b"))
	if err := Tasks(context.Background(), 2, Options{Workers: 1}, root); err != nil {
		t.Fatal(err)
	}
	want := "0 0b 0a 0a2 0a1 1 1b 1a 1a2 1a1"
	if got := fmt.Sprint(order); got != "["+want+"]" {
		t.Fatalf("one worker ran %v, want [%s]", order, want)
	}
}

// TestTasksOneRootUsesIdleWorkers: a task submitted by the only root runs
// on another worker while the root is still running. The root waits for
// it, so the test hangs (and times out) rather than passes if only roots
// ever get a worker.
func TestTasksOneRootUsesIdleWorkers(t *testing.T) {
	var rootWorker, childWorker int
	err := Tasks(context.Background(), 1, Options{Workers: 2}, func(_ context.Context, task *Task) error {
		rootWorker = task.Worker
		started := make(chan int)
		task.Go(func(_ context.Context, child *Task) error {
			started <- child.Worker
			return nil
		})
		childWorker = <-started
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rootWorker == childWorker {
		t.Fatalf("root and the task it was waiting for both ran on worker %d", rootWorker)
	}
}

func TestTasksErrorCarriesRootIdentityAndStopsThePool(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	// A root after 3 holds its worker until the leaf's failure cancels the
	// pool, so the other worker cannot run through the remaining roots
	// before the leaf has run. The leaf is newest, so it runs next.
	err := Tasks(context.Background(), 100, Options{Name: "tree", Workers: 2},
		func(ctx context.Context, task *Task) error {
			ran.Add(1)
			switch {
			case task.Index == 3:
				task.Go(func(context.Context, *Task) error { return fmt.Errorf("leaf: %w", boom) })
			case task.Index > 3:
				<-ctx.Done()
			}
			return nil
		})
	var se *ShardError
	if !errors.As(err, &se) || se.Name != "tree" || se.Index != 3 || !errors.Is(err, boom) {
		t.Fatalf("got %v, want a *ShardError for root 3 of tree wrapping boom", err)
	}
	if n := ran.Load(); n >= 100 {
		t.Fatalf("all %d roots ran despite the failure under root 3", n)
	}
}

func TestTasksTelemetryAndSpansCoverSubmittedTasks(t *testing.T) {
	reg := telemetry.NewRegistry()
	var spansBuf bytes.Buffer
	tracer := telemetry.NewTracer(&spansBuf)
	err := Tasks(context.Background(), 2, Options{Name: "tr", Workers: 3, Telemetry: reg, Tracer: tracer},
		func(_ context.Context, task *Task) error {
			task.SetAttr("kind", "root")
			task.Go(func(_ context.Context, child *Task) error {
				child.SetAttr("kind", "leaf")
				return nil
			})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if n := snap.Counters[telemetry.MetricID("runner_shards_total", "runner", "tr")]; n != 4 {
		t.Fatalf("runner_shards_total = %d, want 4", n)
	}
	// Not capped at the two roots: the tasks they submit can use the third.
	if w := snap.Gauges[telemetry.MetricID("runner_workers", "runner", "tr")]; w != 3 {
		t.Fatalf("runner_workers = %g, want 3", w)
	}
	spans, err := telemetry.ReadSpans(&spansBuf)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, sp := range spans {
		if sp.Name != "tr:shard" || sp.TID < 1 || sp.TID > 3 {
			t.Fatalf("unexpected span %+v", sp)
		}
		kinds[sp.Attrs["kind"]+sp.Attrs["shard"]]++
	}
	if len(spans) != 4 || kinds["root0"] != 1 || kinds["root1"] != 1 || kinds["leaf0"] != 1 || kinds["leaf1"] != 1 {
		t.Fatalf("spans %v, want a root and a leaf under each of shards 0 and 1", kinds)
	}
}
