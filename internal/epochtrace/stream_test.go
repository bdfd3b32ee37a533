package epochtrace

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ssmdvfs/internal/counters"
)

func TestFeatureStreamCyclesConcurrently(t *testing.T) {
	trace := sampleTrace()
	s, err := NewFeatureStream(trace)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(trace.Records) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(trace.Records))
	}
	// Serial: Next cycles through all rows then wraps.
	first := s.Next()
	for i := 1; i < s.Len(); i++ {
		s.Next()
	}
	if wrapped := s.Next(); &wrapped[0] != &first[0] {
		t.Fatal("stream did not wrap to the first row")
	}

	// Concurrent: every Next must return a valid row.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				row := s.Next()
				if len(row) != counters.Num {
					t.Errorf("row has %d entries", len(row))
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestFeatureStreamRejectsEmpty(t *testing.T) {
	if _, err := NewFeatureStream(&Trace{}); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := NewFeatureStream(nil); err == nil {
		t.Fatal("nil trace accepted")
	}
}

func TestOpenFeatureStream(t *testing.T) {
	trace := sampleTrace()
	dir := t.TempDir()

	path := filepath.Join(dir, "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := OpenFeatureStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(trace.Records) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(trace.Records))
	}
	if !sameBits(s.Row(3), trace.Records[3].Counters) {
		t.Fatalf("row 3 = %v, want %v", s.Row(3), trace.Records[3].Counters)
	}

	if _, err := OpenFeatureStream(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("missing file accepted")
	}
}
