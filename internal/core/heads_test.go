package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestTrainHeadsIndependentOfScheduling: Train fits the two heads at once,
// and the model it returns is byte for byte the same on one processor as on
// two, where the heads really run in parallel (under -race, with the
// detector watching them).
func TestTrainHeadsIndependentOfScheduling(t *testing.T) {
	ds := syntheticDataset(120, 3)
	opts := quickOpts()
	opts.Epochs = 8
	modelBytes := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m, _, err := Train(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, two := modelBytes(1), modelBytes(2)
	if !bytes.Equal(one, two) {
		t.Fatalf("the model trained at GOMAXPROCS 2 differs from the one trained at 1 (%d vs %d bytes)", len(two), len(one))
	}
}

// TestTrainHeadErrors: a failing head fails Train, the Decision-maker's
// error comes first when both fail, and Train leaves no goroutine behind.
func TestTrainHeadErrors(t *testing.T) {
	ds := syntheticDataset(40, 4)
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name            string
		decision, calib []int
		want, notWant   string
	}{
		// A zero-width hidden layer is NewMLP's error, "size 1 is 0".
		{name: "decision", decision: []int{0}, calib: []int{8}, want: "size 1 is 0"},
		{name: "calibrator", decision: []int{8}, calib: []int{8, 0}, want: "size 2 is 0"},
		{name: "both", decision: []int{0}, calib: []int{8, 0}, want: "size 1 is 0", notWant: "size 2"},
	} {
		opts := quickOpts()
		opts.Epochs = 1
		opts.Arch = Architecture{DecisionHidden: tc.decision, CalibratorHidden: tc.calib}
		m, _, err := Train(ds, opts)
		if err == nil || m != nil {
			t.Fatalf("%s head failing: Train returned model %v, error %v", tc.name, m, err)
		}
		if !strings.Contains(err.Error(), tc.want) || tc.notWant != "" && strings.Contains(err.Error(), tc.notWant) {
			t.Fatalf("%s head failing: error %q, want the one with %q", tc.name, err, tc.want)
		}
	}
	// A finished goroutine may still be counted for a moment after it has
	// signalled; one that is still running never leaves.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the failing Trains, %d before", n, before)
	}
}
