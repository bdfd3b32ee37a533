package clockdomain

import "testing"

func TestNewTableSortsByFrequency(t *testing.T) {
	tbl, err := NewTable([]OperatingPoint{
		{VoltageV: 1.1, FrequencyHz: 1100e6},
		{VoltageV: 1.0, FrequencyHz: 683e6},
		{VoltageV: 1.0, FrequencyHz: 975e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < tbl.Len(); i++ {
		if tbl.Point(i).FrequencyHz <= tbl.Point(i-1).FrequencyHz {
			t.Fatalf("table not sorted at %d: %v after %v", i, tbl.Point(i), tbl.Point(i-1))
		}
	}
	if tbl.Default() != tbl.Len()-1 {
		t.Fatalf("default level = %d, want %d", tbl.Default(), tbl.Len()-1)
	}
}

func TestNewTableErrors(t *testing.T) {
	cases := []struct {
		name   string
		points []OperatingPoint
	}{
		{"too few", []OperatingPoint{{VoltageV: 1, FrequencyHz: 1e9}}},
		{"zero frequency", []OperatingPoint{{VoltageV: 1, FrequencyHz: 0}, {VoltageV: 1, FrequencyHz: 1e9}}},
		{"negative voltage", []OperatingPoint{{VoltageV: -1, FrequencyHz: 1e8}, {VoltageV: 1, FrequencyHz: 1e9}}},
		{"voltage decreasing with frequency", []OperatingPoint{
			{VoltageV: 1.2, FrequencyHz: 1e8},
			{VoltageV: 1.0, FrequencyHz: 1e9},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewTable(tc.points); err == nil {
				t.Fatalf("NewTable(%v) succeeded, want error", tc.points)
			}
		})
	}
}

func TestTitanXTable(t *testing.T) {
	tbl := TitanX()
	if tbl.Len() != 6 {
		t.Fatalf("TitanX has %d points, want 6", tbl.Len())
	}
	def := tbl.Point(tbl.Default())
	if def.FrequencyHz != 1165e6 || def.VoltageV != 1.155 {
		t.Fatalf("default OP = %v, want (1.155V, 1165MHz)", def)
	}
	min := tbl.Point(0)
	if min.FrequencyHz != 683e6 || min.VoltageV != 1.0 {
		t.Fatalf("min OP = %v, want (1.0V, 683MHz)", min)
	}
}

func TestPeriodPs(t *testing.T) {
	op := OperatingPoint{VoltageV: 1, FrequencyHz: 1e9}
	if got := op.PeriodPs(); got != 1000 {
		t.Fatalf("1 GHz period = %d ps, want 1000", got)
	}
	op = OperatingPoint{VoltageV: 1, FrequencyHz: 1165e6}
	if got := op.PeriodPs(); got != 858 {
		t.Fatalf("1165 MHz period = %d ps, want 858", got)
	}
}

func TestClamp(t *testing.T) {
	tbl := TitanX()
	for _, tc := range []struct{ in, want int }{
		{-5, 0}, {0, 0}, {3, 3}, {5, 5}, {6, 5}, {100, 5},
	} {
		if got := tbl.Clamp(tc.in); got != tc.want {
			t.Errorf("Clamp(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
