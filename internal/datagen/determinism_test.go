package datagen

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ssmdvfs/internal/isa"
	"ssmdvfs/internal/telemetry"
)

// suiteKernels returns a few distinct kernels so the parallel runner has
// real sharding to do.
func suiteKernels() []isa.Kernel {
	base := testKernel()
	var ks []isa.Kernel
	for i, name := range []string{"det-a", "det-b", "det-c"} {
		k := base
		k.Name = name
		k.WarpsPerCluster = 4 + 2*i
		ks = append(ks, k)
	}
	return ks
}

// suiteBytes runs a suite over ks at the given worker count and returns
// the serialized dataset.
func suiteBytes(t *testing.T, ks []isa.Kernel, workers int) []byte {
	t.Helper()
	ds, err := RunSuite(SuiteOptions{
		Config:  testConfig(),
		Kernels: ks,
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRunSuiteDeterministicAcrossWorkers: sharding data generation across
// workers must produce byte-identical serialized output, regardless of
// worker count or scheduling — for a suite of several kernels, and for one
// kernel alone, whose (breakpoint, feature level) windows are then all the
// pool has to spread over its workers. Run under -race in CI, it also
// proves the tasks share no mutable state.
func TestRunSuiteDeterministicAcrossWorkers(t *testing.T) {
	for name, ks := range map[string][]isa.Kernel{"suite": suiteKernels(), "one kernel": suiteKernels()[:1]} {
		serial := suiteBytes(t, ks, 1)
		if len(serial) == 0 {
			t.Fatal("empty serialized dataset")
		}
		for _, workers := range []int{2, 8} {
			if par := suiteBytes(t, ks, workers); !bytes.Equal(serial, par) {
				t.Fatalf("%s: workers=%d produced different bytes than workers=1 (%d vs %d bytes)",
					name, workers, len(par), len(serial))
			}
		}
	}
}

// TestRunSuiteLoggerAndErrors exercises the options surface: a nil
// logger is quiet but valid, a func logger receives per-kernel lines
// (the Logger serializes concurrent shards), and invalid inputs fail up
// front.
func TestRunSuiteLoggerAndErrors(t *testing.T) {
	var lines []string
	logger := telemetry.NewLoggerFunc(func(format string, args ...any) {
		lines = append(lines, format)
	}, nil)
	if _, err := RunSuite(SuiteOptions{Config: testConfig(), Kernels: suiteKernels(), Workers: 4, Logger: logger}); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("logger saw no output")
	}
	if _, err := RunSuite(SuiteOptions{Config: testConfig()}); err == nil {
		t.Fatal("empty kernel list accepted")
	}
	bad := testConfig()
	bad.BreakpointPs = -1
	if _, err := RunSuite(SuiteOptions{Config: bad, Kernels: suiteKernels()[:1]}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestRunSuiteKernelSpans: a kernel's "datagen:<kernel>" span is one span
// from its root's start to the end of its last task, so it overlaps every
// pool shard of that kernel. On one worker a root returns before any of its
// tasks starts, so a span ended with the root would not.
func TestRunSuiteKernelSpans(t *testing.T) {
	var buf bytes.Buffer
	tracer := telemetry.NewTracer(&buf)
	ks := suiteKernels()[:2]
	if _, err := RunSuite(SuiteOptions{Config: testConfig(), Kernels: ks, Workers: 1, Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]telemetry.SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for i, k := range ks {
		own := byName["datagen:"+k.Name]
		if len(own) != 1 {
			t.Fatalf("%d spans named datagen:%s, want 1", len(own), k.Name)
		}
		ksp := own[0]
		shards := 0
		for _, sp := range byName["datagen:shard"] {
			if sp.Attrs["shard"] != strconv.Itoa(i) {
				continue
			}
			shards++
			if sp.StartUs > ksp.StartUs+ksp.DurUs || sp.StartUs+sp.DurUs < ksp.StartUs {
				t.Fatalf("%s shard [%.0f, %.0f] µs lies outside its kernel span [%.0f, %.0f] µs", k.Name,
					sp.StartUs, sp.StartUs+sp.DurUs, ksp.StartUs, ksp.StartUs+ksp.DurUs)
			}
		}
		// The root, and one task per (breakpoint, feature level).
		if want := 1 + len(testConfig().FeatureLevels); shards != want {
			t.Fatalf("%s ran %d shards, want %d", k.Name, shards, want)
		}
	}
}
