package main

import (
	"math"
	"regexp"
	"testing"
)

func testManifest(t *testing.T) (string, *manifest) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, man
}

// TestSmoke runs the shortest pass of every workload, untraced and traced,
// and holds what it emits against BENCHMARK.json: the same metric names,
// no more and no fewer, each with the manifest's unit and a finite value,
// and no failed operation.
func TestSmoke(t *testing.T) {
	root, man := testManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(man.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(man.Workloads), len(workloadNames))
	}
	for i, w := range man.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloadNames[i])
		}
		for _, trace := range []bool{false, true} {
			want := man.EndToEnd
			if trace {
				want = man.PerLayer
			}
			cfg := config{root: root, seed: 1, seconds: 0.05, trace: trace, smoke: true, traceDir: t.TempDir()}
			rep, err := runWorkload(w.Name, cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			got := rep.finish(trace)
			if rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("%s trace=%t: attempted %d, failed %d: %v", w.Name, trace, rep.attempted, rep.failed, rep.failures)
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%t: emitted %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(got), len(want))
			}
			for _, m := range want {
				g, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: %s is in BENCHMARK.json and was not emitted", w.Name, trace, m.Name)
				case g.Unit != m.Unit:
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
				case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
					t.Errorf("%s trace=%t: %s = %v", w.Name, trace, m.Name, g.Value)
				case !trace && g.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
				if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
					t.Errorf("metric %q with unit %q is outside the contract's alphabet", m.Name, m.Unit)
				}
			}
		}
	}
}

// TestManifestLimits holds BENCHMARK.json to the limits of the contract it
// is read under that the smoke pass does not already cover.
func TestManifestLimits(t *testing.T) {
	_, man := testManifest(t)
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", man.RunSeconds)
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range man.EndToEnd {
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want 0 to 0.25", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range append(append([]manifestMetric{}, man.EndToEnd...), man.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, w := range man.Workloads {
		if seen[w.Name] {
			t.Errorf("name %s is used twice", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
}

func runsOf(values ...float64) *metricRuns {
	m := &metricRuns{}
	for _, v := range values {
		m.add(metric{Value: v, Unit: "us"})
	}
	return m
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		name  string
		a, b  *metricRuns
		lower bool
		want  string
	}{
		{"same", runsOf(100, 101, 102), runsOf(101, 102, 100), true, "ok"},
		{"slower within bound", runsOf(100, 101, 102), runsOf(105, 106, 107), true, "ok"},
		{"slower past bound", runsOf(100, 101, 102), runsOf(120, 121, 122), true, "worse"},
		{"faster", runsOf(100, 101, 102), runsOf(50, 51, 52), true, "ok"},
		{"throughput down", runsOf(100, 101, 102), runsOf(80, 81, 82), false, "worse"},
		{"throughput up", runsOf(100, 101, 102), runsOf(130, 131, 132), false, "ok"},
		{"noisy and overlapping", runsOf(80, 100, 130), runsOf(90, 115, 140), true, "unresolved"},
		{"noisy but every run better", runsOf(80, 100, 130), runsOf(40, 50, 70), true, "ok"},
		{"noisy and every run worse", runsOf(80, 100, 130), runsOf(140, 180, 230), true, "worse"},
	} {
		if _, got := verdict(c.a, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
