package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/serve"
)

// checkEvery is how often a frame's decisions are compared in full with
// the in-process reference (its reasons are checked on every frame), and,
// in a traced run, how often a frame is sampled into the trace.
const checkEvery = 64

// caller is one closed-loop client: it sends frame f and returns the
// decisions. sampled marks the frames a traced run samples.
type caller interface {
	decide(f *frame, sampled bool) ([]serve.Decision, error)
}

// worker drives one caller: it sends the next frame only when the last
// one has been answered.
type worker struct {
	id     int
	c      caller
	frames []frame
	n      int // frames sent so far

	// levelsOnly is the int8 rule: a level that differs from the float64
	// reference is a flip, counted and judged as a rate at the end, and
	// PredInstr is not compared.
	levelsOnly bool
	// onSample, in a traced run, receives every checkEvery-th frame with
	// the round trip's start and end.
	onSample func(w *worker, f *frame, t0, t1 time.Time)

	rtts      [][]uint32 // ns, by window
	decisions []int64    // by window

	attempted, failed int64
	checked, flips    int64
	failures          []string
}

func (w *worker) failf(n int64, format string, args ...any) {
	w.failed += n
	if len(w.failures) < 4 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// send does one round trip and checks what came back. Every decision must
// have taken the model path; every checkEvery-th frame (all of them when
// full is set, as in warm-up) is also compared with the reference.
func (w *worker) send(full bool) (rows int, t0, t1 time.Time) {
	f := &w.frames[w.n%len(w.frames)]
	sampled := w.n%checkEvery == 0
	t0 = time.Now()
	decs, err := w.c.decide(f, sampled && w.onSample != nil)
	t1 = time.Now()
	w.n++
	rows = len(f.rows)
	w.attempted += int64(rows)
	if err != nil {
		w.failf(int64(rows), "frame %d: %v", w.n-1, err)
		return rows, t0, t1
	}
	if len(decs) != rows {
		w.failf(int64(rows), "frame %d: %d decisions for %d rows", w.n-1, len(decs), rows)
		return rows, t0, t1
	}
	full = full || sampled
	for i := range decs {
		d := &decs[i]
		switch {
		case d.Reason != provenance.ReasonModel:
			w.failf(1, "frame %d row %d: answered by %s, not the model", w.n-1, i, d.Reason)
		case !full:
		case d.Level != f.want[i].level:
			if w.levelsOnly {
				w.flips++
			} else {
				w.failf(1, "frame %d row %d: level %d, reference %d", w.n-1, i, d.Level, f.want[i].level)
			}
		case !w.levelsOnly && d.PredInstr != f.want[i].pred:
			w.failf(1, "frame %d row %d: PredInstr %v, reference %v", w.n-1, i, d.PredInstr, f.want[i].pred)
		}
	}
	if full {
		w.checked += int64(rows)
	}
	if sampled && w.onSample != nil {
		w.onSample(w, f, t0, t1)
	}
	return rows, t0, t1
}

// loopResult is what a run of timed windows measured.
type loopResult struct {
	perSecond []float64 // decisions per second, by window
	p50us     []float64 // frame round trip p50, by window
	p99us     float64   // over all windows
	p999us    float64
	frames    int64
	decisions int64
	cpu       time.Duration
	peakRSSMB float64 // at the end of the last window
	syscalls  float64 // read+write system calls per frame; 0 if unreadable
	mallocs   float64 // heap allocations per frame, whole process
}

// maxInt8FlipRate is the share of rows on which the int8 backend may pick
// another level than float64 before the workload counts as incorrect:
// half of the 2 % the backend's own load-time parity gate allows. Over the
// committed rows it flips 0.2–0.4 % depending on the presets the seed
// draws, so a limit of 0.5 % would fail some seeds by sampling alone.
const maxInt8FlipRate = 0.01

// runWindows runs the workers closed-loop for n windows of length win and
// folds their failures into rep. The workers share a start time, so
// window i means the same interval to all of them.
func runWindows(workers []*worker, n int, win time.Duration, rep *report) loopResult {
	for _, w := range workers {
		w.rtts, w.decisions = make([][]uint32, n), make([]int64, n)
	}
	sys0, sysOK := ioSyscalls()
	m0 := mallocs()
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			frames := 0
			for i := 0; i < n; i++ {
				end := start.Add(time.Duration(i+1) * win)
				// One slice per window, sized by the window before: memory
				// grows with the frames sent and is never copied, so the peak
				// RSS does not depend on where a doubling fell.
				rtts := make([]uint32, 0, max(64, 2*frames))
				for {
					rows, t0, t1 := w.send(false)
					rtts = append(rtts, uint32(min(t1.Sub(t0), math.MaxUint32)))
					w.decisions[i] += int64(rows)
					if !t1.Before(end) {
						break
					}
				}
				w.rtts[i], frames = rtts, len(rtts)
			}
		}(w)
	}
	wg.Wait()
	// Read before the sorting below, whose copies are the benchmark's and
	// not the system's.
	res := loopResult{cpu: cpuTime() - cpu0, peakRSSMB: peakRSSMB()}
	m1 := mallocs()
	sys1, _ := ioSyscalls()

	var all []uint32
	for i := 0; i < n; i++ {
		var inWin []uint32
		var decisions int64
		for _, w := range workers {
			inWin = append(inWin, w.rtts[i]...)
			decisions += w.decisions[i]
		}
		sort.Slice(inWin, func(a, b int) bool { return inWin[a] < inWin[b] })
		res.perSecond = append(res.perSecond, float64(decisions)/win.Seconds())
		res.p50us = append(res.p50us, float64(quantileU32(inWin, 0.50))/1e3)
		res.decisions += decisions
		res.frames += int64(len(inWin))
		all = append(all, inWin...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	res.p99us = float64(quantileU32(all, 0.99)) / 1e3
	res.p999us = float64(quantileU32(all, 0.999)) / 1e3
	if res.frames > 0 {
		res.mallocs = float64(m1-m0) / float64(res.frames)
		if sysOK {
			res.syscalls = float64(sys1-sys0) / float64(res.frames)
		}
	}
	collect(workers, rep)
	return res
}

// collect moves the workers' counts into the report and resets them.
func collect(workers []*worker, rep *report) {
	var checked, flips int64
	for _, w := range workers {
		rep.attempted += w.attempted
		rep.failed += w.failed
		for _, f := range w.failures {
			rep.fail(0, "caller %d: %s", w.id, f)
		}
		checked += w.checked
		flips += w.flips
		w.attempted, w.failed, w.failures, w.checked, w.flips = 0, 0, nil, 0, 0
	}
	rep.int8Checked += checked
	rep.int8Flips += flips
}

// quantileU32 is the nearest-rank quantile of a sorted slice.
func quantileU32(sorted []uint32, q float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
