package epochtrace

import (
	"bytes"
	"math"
	"testing"

	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/isa"
)

// simulatedCSV runs a short two-cluster kernel under a controller that
// steps the levels and returns WriteCSV of its first few records.
func simulatedCSV(tb testing.TB) []byte {
	cfg := gpusim.SmallConfig()
	cfg.Clusters = 2
	prog := isa.Program{
		Body:       []isa.Instruction{{Op: isa.OpFAlu, Dst: 1, SrcA: 1}, {Op: isa.OpBranch}},
		Iterations: 30000,
	}
	sim, err := gpusim.New(cfg, gpusim.Kernel{Name: "fuzz", WarpsPerCluster: 4, Programs: []isa.Program{prog}})
	if err != nil {
		tb.Fatal(err)
	}
	trace := &Trace{}
	sim.SetObserver(trace.Observe)
	sim.SetController(stepLevels{cfg.OPs.Len()})
	if res := sim.Run(gpusim.DefaultMaxRunPs); !res.Completed {
		tb.Fatal("kernel incomplete")
	}
	if len(trace.Records) < 6 {
		tb.Fatalf("simulation observed %d records, want at least 6", len(trace.Records))
	}
	trace.Records = trace.Records[:6]
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadCSV mutates trace CSVs. Whatever ReadCSV accepts must answer
// Level and LevelHistogram without a panic, and must write and read back
// to the same records, counters equal bit for bit (any NaN as NaN).
func FuzzReadCSV(f *testing.F) {
	var empty bytes.Buffer
	if err := (&Trace{}).WriteCSV(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(simulatedCSV(f))
	f.Add(empty.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		trace, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, r := range trace.Records {
			r.Level()
		}
		trace.LevelHistogram(6)

		var written bytes.Buffer
		if err := trace.WriteCSV(&written); err != nil {
			t.Fatalf("an accepted trace does not write: %v", err)
		}
		back, err := ReadCSV(&written)
		if err != nil {
			t.Fatalf("a written trace does not read: %v", err)
		}
		if len(back.Records) != len(trace.Records) {
			t.Fatalf("%d records read back, want %d", len(back.Records), len(trace.Records))
		}
		for i, want := range trace.Records {
			got := back.Records[i]
			if got.Epoch != want.Epoch || got.Cluster != want.Cluster {
				t.Fatalf("record %d is (%d, %d), want (%d, %d)", i, got.Epoch, got.Cluster, want.Epoch, want.Cluster)
			}
			for j, v := range want.Counters {
				w := got.Counters[j]
				if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
					t.Fatalf("record %d counter %d: %g read back as %g", i, j, v, w)
				}
			}
		}
	})
}
