package epochtrace

import (
	"fmt"
	"sync/atomic"
)

// FeatureStream replays a trace's counter rows in a cycle, serving any
// number of concurrent readers — the feed for load generators and serving
// benchmarks. Next hands the rows out round-robin with a single atomic
// increment.
type FeatureStream struct {
	rows [][]float64
	next atomic.Uint64
}

// NewFeatureStream streams the counter rows of t as they are stored; it
// shares them with t.
func NewFeatureStream(t *Trace) (*FeatureStream, error) {
	if t == nil || len(t.Records) == 0 {
		return nil, fmt.Errorf("epochtrace: cannot stream an empty trace")
	}
	s := &FeatureStream{rows: make([][]float64, len(t.Records))}
	for i, r := range t.Records {
		s.rows[i] = r.Counters
	}
	return s, nil
}

// Len returns the number of distinct rows in the cycle.
func (s *FeatureStream) Len() int { return len(s.rows) }

// Row returns row i (i is taken modulo Len). The returned slice is shared
// and must not be modified.
func (s *FeatureStream) Row(i int) []float64 {
	return s.rows[i%len(s.rows)]
}

// Next returns the next feature vector in the cycle. Safe for concurrent
// use; the returned slice is shared and must not be modified.
func (s *FeatureStream) Next() []float64 {
	n := s.next.Add(1) - 1
	return s.rows[n%uint64(len(s.rows))]
}

// OpenFeatureStream reads a trace file written by WriteCSV and returns
// its feature stream.
func OpenFeatureStream(path string) (*FeatureStream, error) {
	t, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	return NewFeatureStream(t)
}
