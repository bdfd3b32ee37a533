package datagen

import (
	"bytes"
	"os"
	"path/filepath"
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

// suiteBytes runs the suite at the given worker count and returns the
// serialized dataset.
func suiteBytes(t *testing.T, workers int) []byte {
	t.Helper()
	ds, err := RunSuite(SuiteOptions{
		Config:  testConfig(),
		Kernels: suiteKernels(),
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

// TestRunSuiteDeterministicAcrossWorkers is the tentpole's contract:
// sharding data generation across workers must produce byte-identical
// serialized output, regardless of worker count or scheduling. Run under
// -race in CI, it also proves the shards share no mutable state.
func TestRunSuiteDeterministicAcrossWorkers(t *testing.T) {
	serial := suiteBytes(t, 1)
	if len(serial) == 0 {
		t.Fatal("empty serialized dataset")
	}
	for _, workers := range []int{2, 8} {
		if par := suiteBytes(t, workers); !bytes.Equal(serial, par) {
			t.Fatalf("workers=%d produced different bytes than workers=1 (%d vs %d bytes)",
				workers, len(par), len(serial))
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
