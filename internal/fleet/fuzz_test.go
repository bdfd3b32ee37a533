package fleet

import (
	"bytes"
	"io"
	"testing"

	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/telemetry"
)

// FuzzReadLedgerAggregate: an aggregate ReadLedgerAggregate accepts
// renders through the ledger headline and the breakdown table without a
// panic, and write→read→write is byte-equal. Seeded with a two-replica
// aggregate and one whose replica's saved_hist is wider than the ledger
// writes, which the validator refuses.
func FuzzReadLedgerAggregate(f *testing.F) {
	snap := ledger.Snapshot{Decisions: 3, EnergyMaxPJ: 900, EnergyPJ: 600, PerfLossPpmSum: 30000,
		Groups: map[string]ledger.Group{
			"level=2":   {Decisions: 2, EnergyMaxPJ: 600, EnergyPJ: 350, PerfLossPpmSum: 20000},
			"level=10":  {Decisions: 1, EnergyMaxPJ: 300, EnergyPJ: 250, PerfLossPpmSum: 10000},
			"cluster=0": {Decisions: 3, EnergyMaxPJ: 900, EnergyPJ: 600, PerfLossPpmSum: 30000},
		}}
	a := LedgerAggregate{AtUnix: 1700000000, Merged: snap, Replicas: []ledger.ReplicaLedger{
		{Addr: "http://r1:8090", Snapshot: snap},
		{Addr: "http://r2:8090", Err: "404 Not Found"},
	}}
	for _, hist := range []int{0, telemetry.DefaultHistBuckets + 1} {
		a.Replicas[0].Snapshot.SavedHist.Buckets = make([]int64, hist)
		var b bytes.Buffer
		if err := a.WriteJSON(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadLedgerAggregate(bytes.NewReader(data))
		if err != nil {
			return
		}
		WriteLedgerHeadline(io.Discard, "fuzz", a, true)
		a.Merged.WriteBreakdown(io.Discard)
		var first, second bytes.Buffer
		if err := a.WriteJSON(&first); err != nil {
			t.Fatalf("an accepted aggregate does not write: %v", err)
		}
		back, err := ReadLedgerAggregate(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a written aggregate does not read back: %v", err)
		}
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write→read→write differs:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
