// Command bench is the repository's one layered benchmark: seven
// workloads, the end-to-end metrics a user of the system sees, and a
// per-layer ladder under them. BENCHMARK.json at the root of the repository
// names the command, the workloads and every metric; README.md in this
// directory says what each measures and how they interact.
//
//	bash bench/run.sh                       every workload, untraced then traced → bench/results/
//	bash bench/run.sh -runs 10              the same, ten seeds per workload
//	bash bench/run.sh --workload serve_epoch --seed 1 --seconds 8 --trace 0
//	                                        one run in this process (what the driver calls)
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ssmdvfs/internal/atomicfile"
)

// manifest is what the benchmark reads of BENCHMARK.json.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// findRoot walks up from the working directory to the directory that
// holds BENCHMARK.json, so the benchmark runs from the root of the
// repository and from bench/ alike.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// config is what one run of one workload is told.
type config struct {
	root    string
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks every phase to the least that still emits each metric:
	// one 50 ms window, one call per timed loop, toy simulations.
	smoke bool
	// traceDir is where a traced run writes its Chrome trace; empty means
	// bench/results under root.
	traceDir string
}

// window is the length of one timed window of a serving workload. It is
// short on purpose: on a shared machine the hypervisor takes the CPU away
// for milliseconds at a time, a 250 ms window always holds some of that,
// and the median of several hundred 10 ms windows mostly does not.
func (c config) window() time.Duration {
	if c.smoke {
		return 50 * time.Millisecond
	}
	return 10 * time.Millisecond
}

// windows is how many timed windows a serving phase runs: all of
// c.seconds untraced, a third of it for each phase of a traced run.
func (c config) windows() int {
	if c.smoke {
		return 1
	}
	s := c.seconds
	if c.trace {
		s /= 3
	}
	if n := int(s / c.window().Seconds()); n > 1 {
		return n
	}
	return 1
}

// budget is what one timed loop over a layer may take.
func (c config) budget() time.Duration {
	if c.smoke {
		return 0
	}
	return 60 * time.Millisecond
}

func (c config) tracePath(workload string) string {
	dir := c.traceDir
	if dir == "" {
		dir = filepath.Join(c.root, "bench", "results")
	}
	return filepath.Join(dir, "trace_"+workload+".json")
}

// workloadNames is the order the parent runs them in.
var workloadNames = []string{wServeEpoch, wServeBatch, wServeBatchInt8, wServeObserved, wFleetRoute, wSimClosedLoop, wOfflineBuild}

// runWorkload runs one workload in this process and returns its report.
// A returned error means the run could not finish; failed operations that
// did not stop it are in the report.
func runWorkload(name string, cfg config) (*report, error) {
	rep := newReport(name)
	steal := startStealMeter()
	var err error
	switch name {
	case wSimClosedLoop:
		err = runSim(cfg, rep)
	case wOfflineBuild:
		err = runBuild(cfg, rep)
	default:
		spec, ok := servingSpecs[name]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
		}
		err = runServing(spec, cfg, rep)
	}
	if err != nil {
		return rep, err
	}
	if rep.int8Checked > 0 {
		if rate := float64(rep.int8Flips) / float64(rep.int8Checked); rate > maxInt8FlipRate {
			rep.fail(rep.int8Flips, "int8 levels differ from float64 on %.2f%% of %d checked rows (limit %.1f%%)",
				100*rate, rep.int8Checked, 100*maxInt8FlipRate)
		}
	}
	rep.set("bench.steal_pct", steal.pct())
	rep.set("bench.windows_used", float64(rep.windows))
	if err := checkLadder(rep.ladder); err != nil && !cfg.smoke {
		fmt.Fprintln(os.Stderr, "bench: warning:", err)
	}
	return rep, nil
}

// result is the last line of a run's standard output: what the driver
// reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is what the parent keeps of a child's run beyond the result; the
// child prints it on the line before the result, after detailPrefix.
type detail struct {
	Quartiles map[string][3]float64 `json:"quartiles,omitempty"`
	Ladder    []ladderRow           `json:"ladder,omitempty"`
	Failures  []string              `json:"failures,omitempty"`
}

const detailPrefix = "detail "

// child is the driver's entry point: one workload, one process.
func child(name string, cfg config) int {
	rep, err := runWorkload(name, cfg)
	if err != nil {
		// No result line: a run that could not finish is not a measurement.
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	metrics := rep.finish(cfg.trace)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if d.owner == "" || d.owner == name { // the rest are 0 on this workload
			fmt.Printf("%s %s %v %s\n", name, d.name, metrics[d.name].Value, d.unit)
		}
	}
	fmt.Printf("%s attempted %d succeeded %d failed %d\n", name, rep.attempted, rep.attempted-rep.failed, rep.failed)
	for _, f := range rep.failures {
		fmt.Fprintf(os.Stderr, "bench: %s: failed: %s\n", name, f)
	}
	d, _ := json.Marshal(detail{Quartiles: rep.quartiles, Ladder: rep.ladder, Failures: rep.failures})
	fmt.Printf("%s%s\n", detailPrefix, d)
	if rep.attempted < 1 {
		rep.attempted, rep.failed = 1, 1
	}
	line, _ := json.Marshal(result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics})
	fmt.Println(string(line))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// runFile is the JSON document the parent writes: per workload and metric,
// the value of every run and their quartiles.
type runFile struct {
	Env       environment              `json:"env"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Why       string                 `json:"why"`
	Attempted int64                  `json:"attempted"`
	Succeeded int64                  `json:"succeeded"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]*metricRuns `json:"end_to_end"`
	PerLayer  map[string]*metricRuns `json:"per_layer,omitempty"`
	Windows   map[string][3]float64  `json:"window_quartiles,omitempty"` // of the first run
	Ladder    []ladderRow            `json:"ladder,omitempty"`
	Failures  []string               `json:"failures,omitempty"`
}

type metricRuns struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func (m *metricRuns) add(v metric) {
	m.Unit = v.Unit
	m.Values = append(m.Values, v.Value)
	q := quartiles(m.Values)
	m.Q1, m.Median, m.Q3 = q[0], q[1], q[2]
}

// spawn runs one workload in a child process of this binary and parses
// the two lines the parent needs from its output.
func spawn(root, name string, seed int64, seconds float64, trace int) (result, detail, error) {
	var res result
	var det detail
	exe, err := os.Executable()
	if err != nil {
		return res, det, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace))
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) == 0 || json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil || res.Metrics == nil {
		return res, det, fmt.Errorf("%s printed no result (%v)", name, runErr)
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, detailPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &det); err != nil {
				return res, det, err
			}
		}
	}
	return res, det, nil
}

// parent runs every workload in child processes — runs untraced runs on
// consecutive seeds, then one traced run — prints one line per metric and
// writes the run file.
func parent(root string, man *manifest, seed int64, seconds float64, runs int, out string) int {
	file := runFile{
		Env: environment{
			GitRev: gitRev(root), GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, CPUModel: cpuModel(),
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Runs: runs, Seconds: seconds,
			WindowMs: float64(config{}.window()) / 1e6, LoadStart: loadAvg(),
		},
		Workloads: map[string]*workloadRuns{},
	}
	steal := startStealMeter()
	why := map[string]string{}
	for _, w := range man.Workloads {
		why[w.Name] = w.Why
	}
	status := 0
	for _, name := range workloadNames {
		wr := &workloadRuns{Why: why[name], EndToEnd: map[string]*metricRuns{}, PerLayer: map[string]*metricRuns{}}
		file.Workloads[name] = wr
		// run spawns one run and files its metrics under into; a run that
		// printed no result counts as one failed operation.
		run := func(into map[string]*metricRuns, seed int64, trace int) detail {
			res, det, err := spawn(root, name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				res, det = result{Attempted: 1, Failed: 1}, detail{Failures: []string{err.Error()}}
			}
			for n, v := range res.Metrics {
				if into[n] == nil {
					into[n] = &metricRuns{}
				}
				into[n].add(v)
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Succeeded += res.Attempted - res.Failed
			wr.Failures = append(wr.Failures, det.Failures...)
			return det
		}
		for r := 0; r < runs; r++ {
			det := run(wr.EndToEnd, seed+int64(r), 0)
			if r == 0 {
				wr.Windows = det.Quartiles
			}
		}
		wr.Ladder = run(wr.PerLayer, seed, 1).Ladder
		printRuns(name, endToEnd, wr.EndToEnd)
		printRuns(name, perLayer, wr.PerLayer)
		fmt.Printf("%s attempted %d succeeded %d failed %d\n", name, wr.Attempted, wr.Succeeded, wr.Failed)
		if wr.Failed > 0 {
			status = 1
		}
	}
	file.Env.LoadEnd = loadAvg()
	file.Env.StealPct = steal.pct()
	doc, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(doc))
	if out != "" {
		path := filepath.Join(root, out)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = atomicfile.Write(path, func(w io.Writer) error { _, err := w.Write(append(doc, '\n')); return err })
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// printRuns prints "workload metric value unit" for the metrics the
// workload measured, in the order of the metric tables; a per-layer metric
// another workload owns is left out here (it is 0 in the run file).
func printRuns(workload string, defs []metricDef, runs map[string]*metricRuns) {
	for _, d := range defs {
		m := runs[d.name]
		if m == nil || (d.owner != "" && d.owner != workload) {
			continue
		}
		fmt.Printf("%s %s %v %s\n", workload, d.name, m.Median, m.Unit)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process and print the driver's result line")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics and writes a Chrome trace")
		runs     = flag.Int("runs", 1, "without -workload: untraced runs per workload, on consecutive seeds")
		out      = flag.String("out", "bench/results/BENCH_11.json", "without -workload: where to write the run file, relative to the repository root (empty: nowhere)")
		compare  = flag.Bool("compare", false, "compare two run files: bench -compare a.json b.json")
		smoke    = flag.Bool("smoke", false, "with -workload: the shortest pass that still emits every metric")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	man, err := readManifest(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(man, flag.Arg(0), flag.Arg(1), os.Stdout))
	case *workload != "":
		os.Exit(child(*workload, config{root: root, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke}))
	default:
		os.Exit(parent(root, man, *seed, *seconds, *runs, *out))
	}
}
