package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in KiB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// ioSyscalls is syscr+syscw from /proc/self/io: the read- and write-class
// system calls the process has made. ok is false where the file cannot be
// read (non-Linux, restricted /proc).
func ioSyscalls() (n int64, ok bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, found := strings.Cut(line, ": ")
		if found && (k == "syscr" || k == "syscw") {
			x, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return 0, false
			}
			n += x
			ok = true
		}
	}
	return n, ok
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: steal ticks and
// the total of all fields. Zeroes where it cannot be read.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal; guest ticks are
		// already inside user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter reports the share of machine CPU time stolen by the
// hypervisor since it was started — the label for a noisy box.
type stealMeter struct{ steal0, total0 float64 }

func startStealMeter() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

func (m stealMeter) pct() float64 {
	s, t := cpuTicks()
	if t <= m.total0 {
		return 0
	}
	return 100 * (s - m.steal0) / (t - m.total0)
}

func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(data))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev asks git for the checkout's revision; the driver's checkout is
// not a repository, so "unknown" is an expected answer.
func gitRev(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// environment labels a result file, so that a noisy run is read as one.
type environment struct {
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	WindowMs   float64 `json:"window_ms"`
	LoadStart  string  `json:"loadavg_start"`
	LoadEnd    string  `json:"loadavg_end"`
	StealPct   float64 `json:"steal_pct"`
}

// timeLoop calls fn(i) with i counting up from 0 for roughly budget and
// returns the median cost of one call over equal batches, and the
// heap allocations per call over all of them. A budget of 0 makes it one
// call (the smoke pass). It is the benchmark's stand-in for testing.B:
// per-call clock reads would swamp the 100 ns calls it times.
func timeLoop(budget time.Duration, fn func(i int)) (nsPerCall, allocsPerCall float64) {
	c := timeLoops(budget, fn)
	return c[0].ns, c[0].allocs
}

// loopCost is what one call of a timed loop costs.
type loopCost struct{ ns, allocs float64 }

// timeLoops is timeLoop for several functions whose costs will be
// compared: their batches alternate, so a noisy second on a shared
// machine lands on all of them and not on one.
func timeLoops(budget time.Duration, fns ...func(i int)) []loopCost {
	const batches = 15
	out := make([]loopCost, len(fns))
	next := make([]int, len(fns)) // the argument of each function's next call
	size := make([]int, len(fns))
	run := func(f, n int) time.Duration {
		t := time.Now()
		for k := 0; k < n; k++ {
			fns[f](next[f])
			next[f]++
		}
		return time.Since(t)
	}
	for f := range fns {
		run(f, 1) // warm: grow scratch, fault in code
		if budget <= 0 {
			out[f].ns = float64(run(f, 1))
			continue
		}
		// Size a batch to its share of the budget.
		for n := 1; ; n *= 2 {
			if d := run(f, n); d >= budget/20 || n >= 1<<24 {
				size[f] = max(1, int(float64(n)*float64(budget/batches)/float64(d+1)))
				break
			}
		}
	}
	if budget <= 0 {
		return out
	}
	per := make([][batches]float64, len(fns))
	for b := 0; b < batches; b++ {
		for f := range fns {
			m0 := mallocs()
			d := run(f, size[f])
			out[f].allocs += float64(mallocs()-m0) / float64(batches*size[f])
			per[f][b] = float64(d) / float64(size[f])
		}
	}
	for f := range fns {
		out[f].ns = median(per[f][:])
	}
	return out
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
