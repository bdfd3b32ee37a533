package provenance_test

import (
	"bytes"
	"math"
	"testing"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// seedDump writes a dump the way dvfstrace -flightrec and the daemon do:
// a header with training statistics, then model, fallback and rejected
// decisions, one with the non-finite features a rejected row carries.
func seedDump(tb testing.TB) []byte {
	hdr := provenance.Header{
		Build:     map[string]string{"go": "test"},
		Features:  []string{"ipc", "ppc_total_w"},
		TrainMean: []float64{1.5, 5},
		TrainStd:  []float64{0.2, 1},
		Levels:    6,
		Capacity:  8,
		Head:      3,
	}
	var recs []provenance.Record
	for i, reason := range []provenance.Reason{provenance.ReasonModel, provenance.ReasonFallback, provenance.ReasonRejected} {
		rec := provenance.Record{
			Seq: uint64(i + 1), GPU: int32(i), Cluster: int32(i), Epoch: int32(10 + i),
			Level: int32(i + 2), Reason: reason, Preset: 0.1, EffPreset: 0.08,
			PredInstr: 9000, LatencyNs: 250, TraceID: uint64(i) << 40, ModelGen: uint32(i),
		}
		if i > 0 {
			rec.PredErr, rec.HasPredErr = 0.03, true
		}
		raw := make([]float64, counters.Num)
		for j := range raw {
			raw[j] = float64(100*i + j)
		}
		if reason == provenance.ReasonRejected {
			raw[3], raw[4] = math.NaN(), math.Inf(-1)
		}
		rec.SetRaw(raw)
		rec.SetDerived(raw[:5])
		rec.SetLogits([]float64{0.1, -0.2, 0.3, 0, 0.5, 0.6})
		recs = append(recs, rec)
	}
	var buf bytes.Buffer
	if err := provenance.WriteRecords(&buf, hdr, recs); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadRecords mutates a flight-recorder dump. Whatever ReadRecords
// accepts must replay through the ledger and the drift monitor without a
// panic, and must write and read back to the same dump.
func FuzzReadRecords(f *testing.F) {
	f.Add(seedDump(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, err := provenance.ReadRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		ledger.ReplayRecords(recs)
		mon := provenance.NewMonitor(telemetry.NewRegistry(), provenance.MonitorOptions{Window: 4})
		mon.SetTrainingStats(hdr.Features, hdr.TrainMean, hdr.TrainStd)
		mon.ObserveRecords(recs)
		mon.DriftState()

		var written bytes.Buffer
		if err := provenance.WriteRecords(&written, hdr, recs); err != nil {
			t.Fatalf("an accepted dump does not write: %v", err)
		}
		hdr2, recs2, err := provenance.ReadRecords(bytes.NewReader(written.Bytes()))
		if err != nil {
			t.Fatalf("a written dump does not read: %v", err)
		}
		var again bytes.Buffer
		if err := provenance.WriteRecords(&again, hdr2, recs2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written.Bytes(), again.Bytes()) {
			t.Fatalf("write → read → write changed the dump:\n%s\n%s", written.Bytes(), again.Bytes())
		}
	})
}
