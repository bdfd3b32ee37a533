// Package runner is the deterministic parallel execution engine behind
// the offline pipeline: the Fig. 3 generators shard their independent
// units across a bounded worker pool through Map, and datagen suites and
// the Fig. 4 grid, whose units submit further units as they run, through
// Tasks, the pool Map is written on. Shards are claimed in index order,
// results land in a slice indexed by shard, and every shard derives its
// RNG seed from the base seed and shard index alone — never from worker
// identity or scheduling — so output is byte-identical to a serial run at
// any worker count. The first shard error cancels the fleet through the
// context and is returned wrapped with its shard identity.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ssmdvfs/internal/telemetry"
)

// Options configures one Map or Tasks run.
type Options struct {
	// Name labels the run in spans and metrics ("datagen", "fig4", ...).
	Name string
	// Workers bounds the pool; <= 0 uses runtime.GOMAXPROCS(0). Map never
	// starts more workers than it has shards.
	Workers int
	// Seed is the base RNG seed mixed into every Shard.Seed.
	Seed int64
	// Telemetry, when non-nil, receives shard counters, per-shard
	// duration histograms, and per-run worker busy-time (utilization)
	// counters, all labelled runner=Name.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records one span per shard on the executing
	// worker's track id — a Chrome-trace view of pool utilization.
	Tracer *telemetry.Tracer
}

// Shard identifies one unit of work handed to a Map function.
type Shard struct {
	// Index is the unit's position in [0, n); results are merged in
	// index order regardless of which worker ran them.
	Index int
	// Seed is a deterministic per-shard RNG seed derived only from
	// Options.Seed and Index, so randomized shards reproduce exactly at
	// any worker count.
	Seed int64
	// Worker is the executing worker's id in [0, workers). It is
	// informational (log prefixes, span tracks) and must not influence
	// shard results.
	Worker int
}

// ShardError wraps a failing shard's error with the shard's identity.
type ShardError struct {
	// Name is the runner label of the failing Map call.
	Name string
	// Index is the failing shard.
	Index int
	// Err is the shard function's error.
	Err error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("%s: shard %d: %v", e.Name, e.Index, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// Map runs fn over n shards on a bounded worker pool and returns the n
// results in shard order. fn must be pure with respect to scheduling:
// given the same Shard.Index (and Seed), it must produce the same value
// no matter which worker runs it or in what order — that is what makes
// parallel output byte-identical to serial output.
//
// The first shard error cancels the context handed to the remaining
// shards, the pool drains, and the error is returned wrapped in a
// *ShardError carrying the lowest failing shard index. A nil result
// slice with a nil error means n was zero.
func Map[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, s Shard) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	// No shard submits another, so workers beyond n would only idle.
	opts.Workers = min(opts.Workers, n)
	results := make([]T, n)
	err := Tasks(ctx, n, opts, func(ctx context.Context, t *Task) (err error) {
		results[t.Index], err = fn(ctx, Shard{Index: t.Index, Seed: shardSeed(opts.Seed, t.Index), Worker: t.Worker})
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Task is a running task's handle on the pool executing it.
type Task struct {
	// Index is the root task this one is, or descends from through Go.
	Index int
	// Worker is the executing worker's id in [0, workers): informational,
	// like Shard.Worker.
	Worker int

	pool *pool
	span *telemetry.Span
}

// Go submits fn as a further task of the same pool and returns at once. Any
// idle worker may take it — the newest submission first, ahead of every
// root not yet started, so a tree of tasks is walked depth first and what
// its unstarted tasks hold stays small — and Tasks does not return before
// it has run. A failure is reported under the submitting task's Index.
func (t *Task) Go(fn func(ctx context.Context, t *Task) error) {
	p := t.pool
	p.mu.Lock()
	p.stack = append(p.stack, queued{root: t.Index, fn: fn})
	p.mu.Unlock()
	p.cond.Signal()
}

// SetAttr attaches an attribute to the task's span, when there is a Tracer.
func (t *Task) SetAttr(k, v string) { t.span.SetAttr(k, v) }

// queued is a task waiting for a worker.
type queued struct {
	root int
	fn   func(ctx context.Context, t *Task) error
}

// pool is the one worker pool: a stack of waiting tasks and a count of
// running ones, which may still push.
type pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	stack   []queued
	running int
	done    int64   // tasks run
	errs    []error // first failure per root index
}

// Tasks runs root once per index in [0, n) on a bounded worker pool, lowest
// index first, together with every task those submit through Task.Go, and
// returns when all of them have. Unlike Map it does not cap the workers at
// n: submitted tasks can occupy the rest. Scheduling decides which worker
// runs a task and when, and must decide nothing else: a task writes its
// results where its own identity says, never where the order of execution
// does.
//
// Cancellation, telemetry and spans are Map's — a task is a shard: the
// first error stops workers from starting further tasks and is returned as
// a *ShardError carrying the lowest failing root index.
func Tasks(ctx context.Context, n int, opts Options, root func(ctx context.Context, t *Task) error) error {
	if n <= 0 {
		return nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	name := opts.Name
	if name == "" {
		name = "runner"
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var shardUs *telemetry.Histogram
	if opts.Telemetry != nil {
		opts.Telemetry.Gauge("runner_workers", "runner", name).Set(float64(workers))
		shardUs = opts.Telemetry.Histogram("runner_shard_us", "runner", name)
	}

	p := &pool{stack: make([]queued, n), errs: make([]error, n)}
	p.cond = sync.NewCond(&p.mu)
	for i := range p.stack {
		// Root 0 on top: the stack pops from the end.
		p.stack[i] = queued{root: n - 1 - i, fn: root}
	}
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var busy time.Duration
			defer func() {
				if opts.Telemetry != nil {
					opts.Telemetry.Counter("runner_busy_us_total", "runner", name).Add(busy.Microseconds())
				}
			}()
			for {
				q, ok := p.take(ctx)
				if !ok {
					return
				}
				sp := opts.Tracer.Start(name+":shard", "shard", strconv.Itoa(q.root))
				sp.SetCat("runner")
				sp.SetTID(worker + 1)
				t0 := time.Now()
				err := q.fn(ctx, &Task{Index: q.root, Worker: worker, pool: p, span: sp})
				busy += time.Since(t0)
				if shardUs != nil {
					shardUs.Observe(time.Since(t0).Microseconds())
				}
				sp.End()
				if err != nil {
					cancel()
				}
				p.finish(q.root, err)
			}
		}(w)
	}
	wg.Wait()

	if opts.Telemetry != nil {
		opts.Telemetry.Counter("runner_shards_total", "runner", name).Add(p.done)
		opts.Telemetry.Histogram("runner_wall_us", "runner", name).Observe(time.Since(start).Microseconds())
	}
	for i, err := range p.errs {
		if err != nil {
			if opts.Telemetry != nil {
				opts.Telemetry.Counter("runner_shard_errors_total", "runner", name).Add(1)
			}
			return &ShardError{Name: name, Index: i, Err: err}
		}
	}
	return ctx.Err()
}

// take pops the newest waiting task, blocking while there is none but a
// running task may still submit one. It reports false once the pool has
// drained or ctx is cancelled.
func (p *pool) take(ctx context.Context) (queued, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return queued{}, false
		}
		if last := len(p.stack) - 1; last >= 0 {
			q := p.stack[last]
			p.stack[last] = queued{}
			p.stack = p.stack[:last]
			p.running++
			return q, true
		}
		if p.running == 0 {
			return queued{}, false
		}
		p.cond.Wait()
	}
}

// finish retires a running task, keeping the first error of its root, and
// wakes the waiting workers when there is something for them to see: the
// pool drained, or a failure cancelled it.
func (p *pool) finish(root int, err error) {
	p.mu.Lock()
	p.running--
	p.done++
	if err != nil && p.errs[root] == nil {
		p.errs[root] = err
	}
	wake := err != nil || p.running == 0
	p.mu.Unlock()
	if wake {
		p.cond.Broadcast()
	}
}

// shardSeed mixes the base seed and shard index through a splitmix64
// finalizer so neighbouring shards get decorrelated RNG streams.
func shardSeed(base int64, index int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
