package provenance

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"ssmdvfs/internal/counters"
)

func testRecord(i int) Record {
	rec := Record{
		GPU:       int32(i%3) - 1,
		Cluster:   int32(i % 4),
		Epoch:     int32(i),
		Level:     int32(i % 6),
		Reason:    Reason(i % NumReasons),
		Preset:    0.10,
		EffPreset: 0.08,
		PredInstr: 1000 + float64(i),
		LatencyNs: int64(100 + i),
		ModelGen:  uint32(i % 3),
	}
	if i%2 == 0 {
		rec.PredErr = 0.01 * float64(i%7)
		rec.HasPredErr = true
	}
	if i%3 != 0 { // an identity's first decision has no previous level
		rec.PrevLevel, rec.HasPrevLevel = int32((i+4)%6), true
	}
	raw := make([]float64, counters.Num)
	for j := range raw {
		raw[j] = float64(i*100 + j)
	}
	rec.SetRaw(raw)
	rec.SetDerived([]float64{float64(i), 2, 3, 4, 5})
	rec.SetLogits([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6})
	return rec
}

func TestFlightRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(8)
	want := make([]Record, 5)
	for i := range want {
		rec := testRecord(i)
		r.Record(&rec)
		want[i] = rec // Record assigned Seq
	}
	got := r.Snapshot(nil)
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if r.Head() != 5 || r.Head() > uint64(r.Cap()) {
		t.Fatalf("head=%d cap=%d, want 5 records and none overwritten", r.Head(), r.Cap())
	}
}

func TestFlightRecorderWraps(t *testing.T) {
	const capN = 4
	r := NewRecorder(capN)
	for i := 0; i < 10; i++ {
		rec := testRecord(i)
		r.Record(&rec)
	}
	got := r.Snapshot(nil)
	if len(got) != capN {
		t.Fatalf("snapshot has %d records, want %d", len(got), capN)
	}
	// Oldest first: generations 6..9 → seqs 7..10.
	for i, rec := range got {
		if want := uint64(7 + i); rec.Seq != want {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, want)
		}
		if rec.Epoch != int32(6+i) {
			t.Fatalf("record %d has epoch %d, want %d", i, rec.Epoch, 6+i)
		}
	}
	if dropped := r.Head() - uint64(r.Cap()); dropped != 6 {
		t.Fatalf("overwritten = %d, want 6", dropped)
	}
}

func TestFlightRecorderNilIsFree(t *testing.T) {
	var r *Recorder
	rec := testRecord(1)
	r.Record(&rec) // must not panic
	if got := r.Snapshot(nil); got != nil {
		t.Fatalf("nil recorder snapshot = %v, want nil", got)
	}
	if r.Cap() != 0 || r.Head() != 0 {
		t.Fatal("nil recorder reports non-zero state")
	}
}

// TestFlightRecorderRecordNoAllocs guards the zero-allocation contract
// of the hot path: recording into a warm ring must not allocate.
func TestFlightRecorderRecordNoAllocs(t *testing.T) {
	r := NewRecorder(64)
	rec := testRecord(3)
	r.Record(&rec)
	allocs := testing.AllocsPerRun(500, func() {
		r.Record(&rec)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFlightRecorderConcurrent hammers the ring with concurrent writers
// while readers snapshot, designed for -race: every record a snapshot
// returns must be internally consistent (the writer-stamped payload).
func TestFlightRecorderConcurrent(t *testing.T) {
	const (
		writers   = 8
		perWriter = 2000
	)
	r := NewRecorder(256)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := testRecord(w)
			for i := 0; i < perWriter; i++ {
				// Writer-identifying payload: every field derived from w
				// so a torn record is detectable.
				rec.Cluster = int32(w)
				rec.Epoch = int32(w)
				rec.PredInstr = float64(w)
				r.Record(&rec)
			}
		}(w)
	}
	readerErr := make(chan string, 1)
	var rwg sync.WaitGroup
	for g := 0; g < 2; g++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			var buf []Record
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = r.Snapshot(buf[:0])
				for _, rec := range buf {
					if rec.Epoch != rec.Cluster || float64(rec.Cluster) != rec.PredInstr {
						select {
						case readerErr <- "snapshot returned a torn record":
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	select {
	case msg := <-readerErr:
		t.Fatal(msg)
	default:
	}
	if got := r.Head(); got != writers*perWriter {
		t.Fatalf("head = %d, want %d", got, writers*perWriter)
	}
	if got := len(r.Snapshot(nil)); got != r.Cap() {
		t.Fatalf("quiescent snapshot has %d records, want full ring of %d", got, r.Cap())
	}
}

// stampRecord makes every payload field of rec a function of v, so a
// record assembled from two writes cannot pass checkStamp.
func stampRecord(rec *Record, writer int, v float64) {
	rec.Cluster = int32(writer)
	rec.PredInstr = v
	for i := range rec.Raw {
		rec.Raw[i] = v
	}
	for i := range rec.Derived {
		rec.Derived[i] = v
		rec.Logits[i] = v
	}
}

func checkStamp(rec *Record) error {
	v := rec.PredInstr
	for i := range rec.Raw {
		if rec.Raw[i] != v {
			return fmt.Errorf("seq %d: raw[%d] = %v, stamp %v", rec.Seq, i, rec.Raw[i], v)
		}
	}
	for i := range rec.Derived {
		if rec.Derived[i] != v || rec.Logits[i] != v {
			return fmt.Errorf("seq %d: aux[%d] = %v/%v, stamp %v", rec.Seq, i, rec.Derived[i], rec.Logits[i], v)
		}
	}
	return nil
}

// TestFlightRecorderTinyRingUnderRace is the hazard the seqlock ring used
// to document away: a ring so small that writers lap each other inside
// one Record call. Eight writers — half through Record, half through
// RecordBatch — wrap a 4-slot ring thousands of times while a reader
// snapshots in a loop. Every record a snapshot returns must be whole,
// sequence numbers must strictly increase, and a writer's own records
// must appear in the order it wrote them. Meant for -race.
func TestFlightRecorderTinyRingUnderRace(t *testing.T) {
	const (
		writers   = 8
		perWriter = 3000
		batch     = 5
	)
	r := NewRecorder(4)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			recs := make([]Record, batch)
			for c := 0; c < perWriter; {
				n := 1
				if w%2 == 1 {
					n = batch
				}
				for k := 0; k < n; k++ {
					stampRecord(&recs[k], w, float64(c))
					c++
				}
				if n == 1 {
					r.Record(&recs[0])
				} else {
					r.RecordBatch(recs)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	readerErr := make(chan error, 1)
	go func() {
		defer close(readerErr)
		var buf []Record
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf = r.Snapshot(buf[:0])
			if len(buf) > r.Cap() {
				readerErr <- fmt.Errorf("snapshot of %d records from a ring of %d", len(buf), r.Cap())
				return
			}
			var lastSeq uint64
			lastStamp := [writers]float64{}
			for i := range lastStamp {
				lastStamp[i] = -1
			}
			for i := range buf {
				rec := &buf[i]
				if err := checkStamp(rec); err != nil {
					readerErr <- err
					return
				}
				if rec.Seq <= lastSeq {
					readerErr <- fmt.Errorf("seq %d follows %d", rec.Seq, lastSeq)
					return
				}
				lastSeq = rec.Seq
				if rec.PredInstr <= lastStamp[rec.Cluster] {
					readerErr <- fmt.Errorf("writer %d: stamp %v at seq %d after stamp %v", rec.Cluster, rec.PredInstr, rec.Seq, lastStamp[rec.Cluster])
					return
				}
				lastStamp[rec.Cluster] = rec.PredInstr
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-readerErr; err != nil {
		t.Fatal(err)
	}
	if got := r.Head(); got != writers*perWriter {
		t.Fatalf("head = %d, want %d", got, writers*perWriter)
	}
	if got := len(r.Snapshot(nil)); got != r.Cap() {
		t.Fatalf("quiescent snapshot has %d records, want the full ring of %d", got, r.Cap())
	}
}

// TestFlightRecorderStaleWriterLoses: a writer that claimed its sequence
// number and was then delayed for a whole lap must not replace the newer
// record that has taken its slot since.
func TestFlightRecorderStaleWriterLoses(t *testing.T) {
	r := NewRecorder(4)
	stale := testRecord(0)
	stale.Seq = r.head.Add(1) // claimed; the copy into the slot is "delayed"
	for i := 1; i <= r.Cap(); i++ {
		rec := testRecord(i)
		r.Record(&rec)
	}
	r.publish(&stale)
	got := r.Snapshot(nil)
	if len(got) != r.Cap() {
		t.Fatalf("snapshot has %d records, want %d", len(got), r.Cap())
	}
	for i, rec := range got {
		if want := uint64(2 + i); rec.Seq != want || rec.Epoch != int32(want-1) {
			t.Fatalf("record %d: seq %d epoch %d, want seq %d epoch %d", i, rec.Seq, rec.Epoch, want, want-1)
		}
	}
}

// TestFlightRecorderFootprint: holding plain Records behind a lock must
// not cost noticeably more memory than the packed atomic words it
// replaced (a stamp plus 10 scalar words plus the three arrays per slot).
func TestFlightRecorderFootprint(t *testing.T) {
	const (
		packedSlotBytes = 8 * (1 + 10 + counters.Num + 2*MaxAux)
		flightrec       = 16384 // `ssmdvfsd -flightrec 16384`
	)
	grow := flightrec * (int(unsafe.Sizeof(slot{})) - packedSlotBytes)
	if grow > 1<<20 {
		t.Fatalf("a %d-slot ring grew by %d bytes (slot is %d B), want at most 1 MB", flightrec, grow, unsafe.Sizeof(slot{}))
	}
}

func TestDumpRoundTrip(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 6; i++ {
		rec := testRecord(i)
		if i == 2 {
			rec.Raw[3] = math.NaN() // a rejected row's hostile feature
			rec.Raw[4] = math.Inf(1)
		}
		r.Record(&rec)
	}
	hdr := Header{
		Build:     map[string]string{"go": "test"},
		Features:  []string{"ipc", "ppc_total_w"},
		TrainMean: []float64{1.5, 5.0},
		TrainStd:  []float64{0.2, 1.0},
		Levels:    6,
		Capacity:  r.Cap(),
		Head:      r.Head(),
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, hdr, r.Snapshot(nil)); err != nil {
		t.Fatal(err)
	}
	gotHdr, recs, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr.Schema != headerSchema || gotHdr.Levels != 6 || gotHdr.Build["go"] != "test" {
		t.Fatalf("header mismatch: %+v", gotHdr)
	}
	if len(recs) != 6 {
		t.Fatalf("%d records, want 6", len(recs))
	}
	if !math.IsNaN(recs[2].Raw[3]) || !math.IsInf(recs[2].Raw[4], 1) {
		t.Fatal("non-finite features did not survive the dump round trip")
	}
	want := r.Snapshot(nil)
	for i := range recs {
		a, b := recs[i], want[i]
		// NaN breaks DeepEqual; compare the record with the hostile
		// floats zeroed on both sides after checking them above.
		if i == 2 {
			a.Raw[3], b.Raw[3] = 0, 0
			a.Raw[4], b.Raw[4] = 0, 0
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("record %d did not round-trip:\n got %+v\nwant %+v", i, a, b)
		}
	}
	// The dump must be byte-deterministic for identical input.
	var buf2 bytes.Buffer
	if err := WriteRecords(&buf2, hdr, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteRecords is not byte-deterministic")
	}
}

// TestReadFileNamesThePath reads a dump back from disk, and a dump whose
// third record is bad: the error names the file and the record.
func TestReadFileNamesThePath(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 4; i++ {
		rec := testRecord(i)
		r.Record(&rec)
	}
	path := filepath.Join(t.TempDir(), "decisions.jsonl")
	if err := WriteFile(path, Header{Levels: 6}, r); err != nil {
		t.Fatal(err)
	}
	hdr, recs, err := ReadFile(path)
	if err != nil || hdr.Levels != 6 || len(recs) != 4 {
		t.Fatalf("ReadFile = (%+v, %d records, %v), want 6 levels and 4 records", hdr, len(recs), err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	lines[3] = "{\"level\":\"six\"}\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadFile(path)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "record 3") {
		t.Fatalf("ReadFile of a bad record: %v, want an error naming %s and record 3", err, path)
	}
}

func TestReasonStringRoundTrip(t *testing.T) {
	for i := 0; i < NumReasons; i++ {
		r := Reason(i)
		got, err := ParseReason(r.String())
		if err != nil || got != r {
			t.Fatalf("reason %d: round-trip got %v, %v", i, got, err)
		}
	}
	if _, err := ParseReason("nonsense"); err == nil {
		t.Fatal("ParseReason accepted garbage")
	}
}

// BenchmarkFlightRecorder_Record is the hot-path benchmark CI smoke-runs;
// it also asserts the zero-allocation contract so a regression fails the
// benchmark run itself, not just the separate guard test.
func BenchmarkFlightRecorder_Record(b *testing.B) {
	r := NewRecorder(4096)
	rec := testRecord(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(&rec)
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() { r.Record(&rec) }); allocs != 0 {
		b.Fatalf("Record allocates %.1f objects/op, want 0", allocs)
	}
}
