package baselines

import (
	"math"
	"testing"

	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/gpusim"
)

// TestRowFallbackMatchesPCSTALLFirstEpoch pins the serving fallback to
// the trusted analytical reference: on a first epoch (no smoothing state
// yet) FallbackDecision over FromStats(stats) must pick exactly the level
// PCSTALL.Decide picks from the raw stats.
func TestRowFallbackMatchesPCSTALLFirstEpoch(t *testing.T) {
	table := clockdomain.TitanX()
	cases := []gpusim.EpochStats{
		{Instructions: 50000, StallCompute: 4000, StallControl: 1000},                     // compute-bound
		{Instructions: 5000, StallMemLoad: 60000, StallMemOther: 5000, StallCompute: 100}, // memory-bound
		{Instructions: 20000, StallMemLoad: 15000, StallMemOther: 2000, StallCompute: 8000, StallControl: 500},
		{}, // empty epoch
	}
	for _, preset := range []float64{0.0, 0.05, 0.10, 0.30} {
		for i, stats := range cases {
			ref, err := NewPCSTALL(table, preset, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Decide(stats)
			got, _ := FallbackDecision(table, counters.FromStats(stats), preset)
			if got != want {
				t.Fatalf("case %d preset %g: fallback level %d, PCSTALL %d", i, preset, got, want)
			}
		}
	}
}

func TestFallbackDecisionSafeOnGarbage(t *testing.T) {
	table := clockdomain.TitanX()
	nanRow := make([]float64, counters.Num)
	for i := range nanRow {
		nanRow[i] = math.NaN()
	}
	checks := []struct {
		name   string
		row    []float64
		preset float64
	}{
		{"nan row", nanRow, 0.10},
		{"nan preset", make([]float64, counters.Num), math.NaN()},
		{"negative preset", make([]float64, counters.Num), -1},
		{"inf preset", make([]float64, counters.Num), math.Inf(1)},
		{"short row", []float64{1, 2}, 0.10},
		{"nil row", nil, 0.10},
	}
	for _, c := range checks {
		level, pred := FallbackDecision(table, c.row, c.preset)
		if level < 0 || level >= table.Len() {
			t.Fatalf("%s: level %d out of range", c.name, level)
		}
		if math.IsNaN(pred) || math.IsInf(pred, 0) || pred < 0 {
			t.Fatalf("%s: predicted instructions %g not finite and non-negative", c.name, pred)
		}
	}
	// A fully-invalid preset must land on the default (fastest) point —
	// the safe side.
	if level, _ := FallbackDecision(table, nanRow, math.NaN()); level != table.Default() {
		t.Fatalf("garbage row+preset picked level %d, want default %d", level, table.Default())
	}
}

func TestRowSensitivityRange(t *testing.T) {
	row := make([]float64, counters.Num)
	row[counters.IdxMH] = 60000
	row[counters.IdxMHNL] = 5000
	row[counters.IdxInstr] = 5000
	s := RowSensitivity(row)
	if s <= 0.5 || s > 1 {
		t.Fatalf("memory-bound sensitivity %g, want in (0.5, 1]", s)
	}
	row[counters.IdxMH], row[counters.IdxMHNL] = 0, 0
	if s := RowSensitivity(row); s != 0 {
		t.Fatalf("compute-bound sensitivity %g, want 0", s)
	}
	table := clockdomain.TitanX()
	allocs := testing.AllocsPerRun(200, func() {
		RowSensitivity(row)
		FallbackDecision(table, row, 0.1)
	})
	if allocs != 0 {
		t.Fatalf("fallback path allocates %.1f per decision, want 0", allocs)
	}
}
