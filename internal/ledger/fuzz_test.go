package ledger

import (
	"bytes"
	"testing"
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
