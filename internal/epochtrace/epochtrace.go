// Package epochtrace records the per-epoch, per-cluster counter rows of a
// simulator run and writes and reads them as CSV. A row is exactly
// counters.FromStats of the epoch — the 47-counter vector the controller,
// the datagen corpus and the flight recorder see — so a trace replays
// into a model, a daemon or a ledger as the run itself did, and carries
// the raw material of the paper's time-series figures (per-epoch levels,
// IPC, power, stall breakdowns).
package epochtrace

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"

	"ssmdvfs/internal/atomicfile"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/gpusim"
)

// Record is one cluster's epoch: its identity and its counter row.
type Record struct {
	Epoch   int
	Cluster int
	// Counters is counters.FromStats of the epoch, in counters.Names()
	// order.
	Counters []float64
}

// Level is the operating level the epoch ran at.
func (r Record) Level() int { return int(r.Counters[counters.IdxLevel]) }

// Trace accumulates records; attach Observe to a simulator.
type Trace struct {
	Records []Record
}

// Observe is a gpusim.EpochObserver that appends a record.
func (t *Trace) Observe(s gpusim.EpochStats) {
	t.Records = append(t.Records, Record{Epoch: s.Epoch, Cluster: s.Cluster, Counters: counters.FromStats(s)})
}

// Cluster returns the sub-trace of one cluster, in epoch order.
func (t *Trace) Cluster(c int) []Record {
	var out []Record
	for _, r := range t.Records {
		if r.Cluster == c {
			out = append(out, r)
		}
	}
	return out
}

// LevelHistogram counts epochs spent at each operating level.
func (t *Trace) LevelHistogram(levels int) []int {
	hist := make([]int, levels)
	for _, r := range t.Records {
		if l := r.Level(); l >= 0 && l < levels {
			hist[l]++
		}
	}
	return hist
}

// Sum totals counter idx over the trace.
func (t *Trace) Sum(idx int) float64 {
	var sum float64
	for _, r := range t.Records {
		sum += r.Counters[idx]
	}
	return sum
}

// MeanPowerW returns the average cluster power over the trace.
func (t *Trace) MeanPowerW() float64 {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Sum(counters.IdxPPC) / float64(len(t.Records))
}

// header is the CSV header: the record identity, then the counter names.
var header = append([]string{"epoch", "cluster"}, counters.Names()...)

// WriteCSV writes the trace with a header row. Counters are written with
// the fewest digits that parse back to the same float64.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, r := range t.Records {
		row[0], row[1] = strconv.Itoa(r.Epoch), strconv.Itoa(r.Cluster)
		for i, v := range r.Counters {
			row[2+i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV. It refuses any header other
// than WriteCSV's, so a row is always the counter vector of today's
// counters.Names().
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	head, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("epochtrace: empty CSV")
	}
	if err != nil {
		return nil, fmt.Errorf("epochtrace: %w", err)
	}
	if !slices.Equal(head, header) {
		return nil, fmt.Errorf("epochtrace: header is not epoch,cluster and the %d counter names", counters.Num)
	}
	t := &Trace{}
	for {
		row, err := cr.Read() // the reader holds every row to the header's width
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("epochtrace: %w", err)
		}
		rec := Record{Counters: make([]float64, counters.Num)}
		rec.Epoch, err = strconv.Atoi(row[0])
		if err == nil {
			rec.Cluster, err = strconv.Atoi(row[1])
		}
		for i := 0; err == nil && i < counters.Num; i++ {
			rec.Counters[i], err = strconv.ParseFloat(row[2+i], 64)
		}
		if err != nil {
			line, _ := cr.FieldPos(0)
			return nil, fmt.Errorf("epochtrace: line %d: %w", line, err)
		}
		t.Records = append(t.Records, rec)
	}
}

// ReadFile reads a trace file written by WriteCSV.
func ReadFile(path string) (*Trace, error) {
	return atomicfile.ReadWith(path, ReadCSV)
}
