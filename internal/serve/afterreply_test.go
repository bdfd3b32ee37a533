package serve

import (
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// observeRows stages rows as one run on sc and observes the batch at once,
// through the observe a served batch ends in, which returns sc to the
// pool: the chunk step TestObservePerChunkEqualsPerRow drives.
func (e *Engine) observeRows(sc *obsScratch, rows []Request, decs []Decision, start time.Time) {
	sc.rows, sc.decs = rows, decs
	sc.stageRun(len(rows), start)
	e.observe(sc)
}

// afterReplyFrames builds frames of n rows, one identity each and the
// same identities in every frame (so feedback chains form across frames),
// with every 13th row carrying an infinite feature: a rejected run of one
// between model runs.
func afterReplyFrames(frames, n int) [][]Request {
	rng := rand.New(rand.NewSource(36))
	out := make([][]Request, frames)
	for f := range out {
		out[f] = make([]Request, n)
		for i := range out[f] {
			r := Request{Preset: 0.1, Features: featureRow(rng), GPU: int32(i / 24), Cluster: int32(i % 24)}
			if i%13 == 3 {
				r.Features[7] = math.Inf(1)
			}
			out[f][i] = r
		}
	}
	return out
}

// sansClock clears what a record may differ in between two engines
// answering the same rows: the sequence number, the latency clock read,
// and the array tails past Num*, which hold whatever the scratch record
// staged before.
func sansClock(recs []provenance.Record) []provenance.Record {
	for i := range recs {
		r := &recs[i]
		r.Seq, r.LatencyNs = 0, 0
		clear(r.Raw[r.NumRaw:])
		clear(r.Derived[r.NumDerived:])
		clear(r.Logits[r.NumLogits:])
	}
	return recs
}

// TestPlanesSeeFrameBeforeNextReply: over TCP with every plane armed, a
// frame is observed after its reply and before its connection reads the
// next frame, so once the reply to frame N+1 has arrived frame N's
// records, ledger rows and identity entries are in the planes — and they
// are what in-process DecideBatch leaves for the same rows.
func TestPlanesSeeFrameBeforeNextReply(t *testing.T) {
	frames := afterReplyFrames(4, 150) // three inference chunks, rejected runs between
	srv := NewServerEngine(armedEngine(t, &servedLog{}))
	cl, err := Dial(listenServer(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	twin := armedEngine(t, &servedLog{})
	observed := 0
	for f, rows := range frames {
		got, err := cl.DecideKeyed(rows)
		if err != nil {
			t.Fatal(err)
		}
		if want := twin.DecideBatch(rows, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: TCP decisions differ from in-process ones", f)
		}
		if f == 0 {
			continue
		}
		prev := frames[f-1]
		observed += len(prev)
		if n := len(srv.FlightRecorder().Snapshot(nil)); n < observed {
			t.Fatalf("reply to frame %d arrived with %d records in the recorder, want frame %d's (%d)", f, n, f-1, observed)
		}
		if n := srv.Ledger().Snapshot().Decisions; n < int64(observed) {
			t.Fatalf("reply to frame %d arrived with %d ledger decisions, want at least %d", f, n, observed)
		}
		srv.idMu.Lock()
		for i, row := range prev {
			key := int64(uint32(row.GPU))<<32 | int64(uint32(row.Cluster))
			var id identity
			j, ok := srv.idIdx[key]
			if ok {
				id = srv.ids[j]
			}
			if pending := id.model != nil; !ok || pending != (i%13 != 3) || pending && id.model != srv.Model() {
				srv.idMu.Unlock()
				t.Fatalf("reply to frame %d: identity of frame %d row %d is %+v (present %v)", f, f-1, i, id, ok)
			}
		}
		srv.idMu.Unlock()
	}
	cl.Close()
	srv.Close()

	got := sansClock(srv.FlightRecorder().Snapshot(nil))
	want := sansClock(twin.FlightRecorder().Snapshot(nil))
	if len(got) != 4*150 || len(got) != len(want) {
		t.Fatalf("%d records over TCP, %d in process, want %d", len(got), len(want), 4*150)
	}
	chained := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d\n got %+v\nwant %+v", i, got[i], want[i])
		}
		if got[i].HasPredErr {
			chained++
		}
	}
	if chained == 0 || got[30].GPU != 1 {
		t.Fatalf("records carry %d prediction errors and row 30 GPU %d, want chains and row identities", chained, got[30].GPU)
	}
	if got, want := srv.QualityMonitor().DriftState(), twin.QualityMonitor().DriftState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("drift state over TCP %+v, in process %+v", got, want)
	}
}

// sleepyShadow is a shadow observer that takes 2 ms per row it is shown.
type sleepyShadow struct{ rows atomic.Int64 }

func (s *sleepyShadow) ObserveServed(Request, Decision) {
	time.Sleep(2 * time.Millisecond)
	s.rows.Add(1)
}

// slowPlanesServer serves behind an armed engine whose shadow observer
// sleeps 2 ms a row, and frames of 8 rows whose row 3 is rejected: runs
// [0, 3), [3, 4) and [4, 8), seven rows for the shadow.
func slowPlanesServer(t *testing.T) (*Server, *sleepyShadow, *Client, [][]Request) {
	t.Helper()
	shadow := &sleepyShadow{}
	srv := NewServerEngine(armedEngine(t, shadow))
	cl, err := Dial(listenServer(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, shadow, cl, afterReplyFrames(8, 8)
}

// TestSlowPlanesStayOffTheReply: planes that take 14 ms a frame leave the
// decision latency — the records' LatencyNs and the server's latency
// histogram, decode to flush — under 2 ms, and still see every row. The
// bounds hold on average over the frames, so one frame preempted on a
// loaded host does not fail the test; with the planes on the reply path
// every frame would take 14 ms.
func TestSlowPlanesStayOffTheReply(t *testing.T) {
	srv, shadow, cl, frames := slowPlanesServer(t)
	for _, rows := range frames {
		if _, err := cl.DecideKeyed(rows); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	srv.Close()

	n := int64(len(frames))
	if got := shadow.rows.Load(); got != 7*n {
		t.Fatalf("shadow saw %d rows, want %d", got, 7*n)
	}
	recs := srv.FlightRecorder().Snapshot(nil)
	if len(recs) != 8*len(frames) {
		t.Fatalf("%d records, want %d", len(recs), 8*len(frames))
	}
	var latency time.Duration
	for _, rec := range recs {
		latency += time.Duration(rec.LatencyNs)
	}
	if mean := latency / time.Duration(len(recs)); mean >= 2*time.Millisecond {
		t.Fatalf("records' mean LatencyNs is %v, want under 2 ms", mean)
	}
	lat := srv.metrics.lat.Snapshot()
	if lat.Count != n {
		t.Fatalf("latency histogram holds %d frames, want %d", lat.Count, n)
	}
	if mean := lat.Sum / n; mean >= 2000 {
		t.Fatalf("a frame took %d µs from decode to flush on average, want under 2 ms (buckets %v)", mean, lat.Buckets)
	}
}

// TestCloseObservesAnsweredFrame: a connection closed right after its
// reply still has that frame observed once Server.Close returns, however
// long the planes take.
func TestCloseObservesAnsweredFrame(t *testing.T) {
	srv, shadow, cl, frames := slowPlanesServer(t)
	if _, err := cl.DecideKeyed(frames[0]); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	srv.Close()
	if n := len(srv.FlightRecorder().Snapshot(nil)); n != 8 {
		t.Fatalf("%d records after Close, want 8", n)
	}
	if n := shadow.rows.Load(); n != 7 {
		t.Fatalf("shadow saw %d rows after Close, want 7", n)
	}
	if n := srv.Ledger().Snapshot().Decisions; n != 8 {
		t.Fatalf("ledger holds %d decisions after Close, want 8", n)
	}
}

// TestFeedbackChainBelongsToItsModel: a frame decided under model A whose
// observation runs after the swap to B leaves A's predictions in the
// identity table, and B's next frame is not charged with them.
func TestFeedbackChainBelongsToItsModel(t *testing.T) {
	e := armedEngine(t, nil)
	frames := afterReplyFrames(3, 24)
	_, _, pending := e.decideBatchTC(frames[0], AllColumns, nil, telemetry.TraceContext{})
	if err := e.Swap(testModel(t, 2)); err != nil {
		t.Fatal(err)
	}
	e.observe(pending) // A's frame reaches the identity table under B
	e.DecideBatch(frames[1], nil)
	recs := e.FlightRecorder().Snapshot(nil)
	for i, rec := range recs {
		if rec.HasPredErr {
			t.Fatalf("record %d of %d carries a prediction error across the swap: %+v", i, len(recs), rec)
		}
	}
	// B's own chain does form.
	e.DecideBatch(frames[2], nil)
	chained := 0
	for _, rec := range e.FlightRecorder().Snapshot(nil)[len(recs):] {
		if rec.HasPredErr {
			chained++
		}
	}
	if chained == 0 {
		t.Fatal("B's second frame carries no prediction error: the chain never formed")
	}
}
