package ledger

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// FuzzReadSnapshot feeds mutated /debug/ledger payloads to ReadSnapshot,
// the one reader of replica snapshots the fleet router merges. An
// accepted snapshot must merge with itself into one WriteJSON can write,
// and write, read back and write again to the same bytes. The seeds are a
// real snapshot and one whose saved_hist has 1100 buckets: past bucket
// 1024 the bounds are infinite, so its merged quantiles would be NaN.
func FuzzReadSnapshot(f *testing.F) {
	l := testLedger(0)
	feed(l, 50, 3, 1)
	feed(l, 20, -1, 2)
	s := l.Snapshot()
	var real bytes.Buffer
	if err := s.WriteJSON(&real); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())
	s.SavedHist.Buckets = make([]int64, 1100)
	s.SavedHist.Buckets[1099] = 1
	var long bytes.Buffer
	if err := s.WriteJSON(&long); err != nil {
		f.Fatal(err)
	}
	f.Add(long.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := Merge(s, s).WriteJSON(new(bytes.Buffer)); err != nil {
			t.Fatalf("accepted snapshot merges into one that does not write: %v", err)
		}
		var first, second bytes.Buffer
		if err := s.WriteJSON(&first); err != nil {
			t.Fatalf("accepted snapshot does not write: %v", err)
		}
		back, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written snapshot does not read back: %v", err)
		}
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write, read, write changed the bytes:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzParseRules: every rule of a spec ParseRules accepts has a known
// kind and a finite threshold, and the states Eval returns for it, on a
// snapshot with history enough for every rule to compute a value,
// encode as JSON (the router's /debug/ledger payload).
func FuzzParseRules(f *testing.F) {
	for _, seed := range []string{
		"", "none", "burn>1.2@32/100; stale>10", "regress>0.5@4",
		"burn>NaN", "stale>+Inf", "burn>1e308;regress>-1e308",
	} {
		f.Add(seed)
	}
	now := time.Unix(1_700_000_000, 0)
	merged := Snapshot{
		Decisions: 4000, PerfLossPpmSum: 8_000_000, PresetPpmSum: 4_000_000,
		SavedRing:  append(ringOf(0, 20, 100, 500_000), ringOf(20, 20, 100, 100_000)...),
		LossRing:   ringOf(0, 40, 100, 200_000),
		PresetRing: ringOf(0, 40, 100, 100_000),
	}
	reps := []ReplicaLedger{{Addr: "r1", LastAdvanceUnix: now.Unix() - 20, Err: "scrape failed"}}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseRules(spec)
		if err != nil {
			return
		}
		for _, r := range rules {
			switch r.Kind {
			case KindBurn, KindRegress, KindStale:
			default:
				t.Fatalf("spec %q: rule of unknown kind %q", spec, r.Kind)
			}
			if math.IsNaN(r.Threshold) || math.IsInf(r.Threshold, 0) {
				t.Fatalf("spec %q: rule %q has threshold %v", spec, r.Name, r.Threshold)
			}
		}
		states := NewAlerts(rules, nil).Eval(now, merged, reps)
		if _, err := json.Marshal(states); err != nil {
			t.Fatalf("spec %q: alert states do not encode: %v", spec, err)
		}
	})
}
