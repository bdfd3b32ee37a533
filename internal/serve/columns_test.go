package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"math/rand"
	"net"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/datagen"
	"ssmdvfs/internal/infer"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// Rows carry the columns the server reads. These tests pin what that must
// not change (the decisions), what it must never do (compute from a column
// that was not sent) and where it steps aside (any armed plane).

// sameDecision reports whether two decisions agree on level, reason and
// PredInstr to the bit.
func sameDecision(a, b Decision) bool {
	return a.Level == b.Level && a.Reason == b.Reason && math.Float64bits(a.PredInstr) == math.Float64bits(b.PredInstr)
}

// sameDecisions fails unless got answers like want, row for row.
func sameDecisions(t *testing.T, what string, got, want []Decision) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d decisions, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameDecision(got[i], want[i]) {
			t.Fatalf("%s row %d: %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// matches reports what sameDecisions asserts.
func matches(got, want []Decision) bool {
	return slices.EqualFunc(got, want, sameDecision)
}

// TestProjectedEqualsFull: the whole committed dataset, at both benchmark
// presets, through a loopback client that projects from its second frame
// on, is answered exactly as an in-process engine answers the full rows —
// level, reason and PredInstr bits, on the float64 and the int8 backend.
// The first 64-row frame is 25 106 bytes and every later one 5 138.
func TestProjectedEqualsFull(t *testing.T) {
	ds, err := datagen.LoadFile("../../testdata/bench-cache/dataset.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []Request
	for _, preset := range []float64{0.10, 0.20} {
		for i, s := range ds.Samples {
			rows = append(rows, Request{Preset: preset, Features: s.Features, GPU: int32(i / 24), Cluster: int32(i % 24)})
		}
	}
	for _, backend := range []infer.Kind{infer.KindFloat64, infer.KindInt8} {
		load := func() *core.Model {
			m, err := core.LoadFile("../../testdata/bench-cache/compressed.json")
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		ref, err := NewEngine(load(), Options{Backend: string(backend)})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(load(), Options{Backend: string(backend)})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := Dial(listenServer(t, srv))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()

		var want []Decision
		for lo := 0; lo < len(rows); lo += 64 {
			frame := rows[lo:min(lo+64, len(rows))]
			got, err := cl.DecideKeyed(frame)
			if err != nil {
				t.Fatal(err)
			}
			want = ref.DecideBatch(frame, want[:0])
			sameDecisions(t, string(backend), got, want)
			wantBytes, wantMask := 5138, uint64(projected)
			if lo == 0 {
				wantBytes = 25106
			}
			if len(frame) == 64 && len(cl.req) != wantBytes {
				t.Fatalf("%s: request %d is %d bytes, want %d", backend, lo/64, len(cl.req), wantBytes)
			}
			if cl.Columns() != wantMask {
				t.Fatalf("%s: after request %d the client sends %#x, want %#x", backend, lo/64, cl.Columns(), wantMask)
			}
		}
		if n := srv.Metrics().ColumnResends.Load(); n != 0 {
			t.Fatalf("%s: %d frames sent back on a connection that only ever narrowed", backend, n)
		}
		if got := srv.Metrics().RequestColumns.Value(); got != 8 {
			t.Fatalf("%s: serve_request_columns = %v, want 8", backend, got)
		}
	}
}

// otherColumns is testModel reading five counters that share nothing with
// the selected five or the fallback's.
func otherColumns(t *testing.T, seed int64) *core.Model {
	m := testModel(t, seed)
	m.FeatureIdx = []int{30, 31, 32, 33, 34}
	m.Lineage = core.Lineage{Generation: 1}
	return m
}

// TestNeverComputesFromAbsentColumn: a client streams 64-row frames while
// the engine swaps 200 times between two models that read disjoint
// columns. Every answered frame is, whole, what one of the two models
// decides from the full rows — never a model fed the zeros of a column
// the frame left out — no call fails, and a frame caught by a swap is
// sent back and resent once.
//
// A swap can land after the server loaded the model for a frame and
// before that frame's answer is in. The frame is answered by the old model
// and the client keeps the old mask, so the next frame is the one sent
// back. That next frame may not meet a second swap as well, or it is sent
// back twice. So the swapper waits, after each swap, until a frame begun
// after the swap returned has been answered: that frame met the new model
// and left the client on its mask.
func TestNeverComputesFromAbsentColumn(t *testing.T) {
	models := [2]*core.Model{testModel(t, 51), otherColumns(t, 52)}
	var refs [2]*Engine
	for i, m := range models {
		var err error
		if refs[i], err = NewEngine(m.Clone(), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(models[0], Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(listenServer(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const swaps = 200
	var begun, frames atomic.Int64 // frames sent so far, and answered
	swapped := make(chan error, 1)
	quit := make(chan struct{}) // a failed test stops the swapper too
	defer close(quit)
	go func() {
		for i := 1; i <= swaps; i++ {
			if err := srv.Swap(models[i%2]); err != nil {
				swapped <- err
				return
			}
			// Frame number next is the first begun after the swap.
			for next := begun.Load(); frames.Load() <= next; runtime.Gosched() {
				select {
				case <-quit:
					return
				default:
				}
			}
		}
		swapped <- nil
	}()

	rng := rand.New(rand.NewSource(53))
	rows := make([]Request, 64)
	var want [2][]Decision
	answeredBy := [2]int{}
	for done := false; !done; {
		select {
		case err := <-swapped:
			if err != nil {
				t.Fatal(err)
			}
			done = true // one more frame, under the final model
		default:
		}
		for i := range rows {
			rows[i] = Request{Preset: 0.05 + 0.2*rng.Float64(), Features: featureRow(rng), GPU: 1, Cluster: int32(i % 24)}
		}
		begun.Add(1)
		before := srv.Metrics().ColumnResends.Load()
		got, err := cl.DecideKeyed(rows)
		if err != nil {
			t.Fatalf("frame %d: %v", frames.Load(), err)
		}
		if resent := srv.Metrics().ColumnResends.Load() - before; resent > 1 {
			t.Fatalf("frame %d was sent back %d times", frames.Load(), resent)
		}
		for i, ref := range refs {
			want[i] = ref.DecideBatch(rows, want[i][:0])
		}
		if matches(want[0], want[1]) {
			t.Fatal("the two models agree on a whole frame; the test cannot tell them apart")
		}
		switch {
		case matches(got, want[0]):
			answeredBy[0]++
		case matches(got, want[1]):
			answeredBy[1]++
		default:
			t.Fatalf("frame %d (mask %#x) is neither model's answer from the full rows", frames.Load(), cl.Columns())
		}
		frames.Add(1)
	}
	if n := srv.Metrics().ColumnResends.Load(); n < 1 || n > swaps {
		t.Fatalf("%d frames sent back over %d swaps, want between 1 and %d", n, swaps, swaps)
	}
	if answeredBy[0] == 0 || answeredBy[1] == 0 {
		t.Fatalf("frames answered per model: %v", answeredBy)
	}
	if errs := srv.Metrics().Errors.Load(); errs != 0 || cl.Reconnects() != 0 {
		t.Fatalf("%d server errors, %d reconnects", errs, cl.Reconnects())
	}
	// The server counts a frame once its reply is written, so the last one
	// may still be on its way into the counter.
	answered := frames.Load() * 64
	for deadline := time.Now().Add(5 * time.Second); srv.Metrics().Decisions.Load() < answered && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if got := srv.Metrics().Decisions.Load(); got != answered {
		t.Fatalf("server counted %d decisions for %d answered frames (want %d): a refused frame was counted", got, frames.Load(), answered)
	}
}

// shadowRows keeps a copy of every row the shadow observer is handed.
type shadowRows struct {
	mu   sync.Mutex
	rows [][]float64
}

func (s *shadowRows) ObserveServed(row Request, _ Decision) {
	s.mu.Lock()
	s.rows = append(s.rows, append([]float64(nil), row.Features...))
	s.mu.Unlock()
}

// TestPlanesForceFullRows: a plane that stores or prices whole rows —
// flight recorder, ledger, shadow observer — makes the engine ask for
// every column, so a client never narrows and the plane sees the caller's
// row, byte for byte.
func TestPlanesForceFullRows(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	rows := make([]Request, 8)
	for i := range rows {
		rows[i] = Request{Preset: 0.1, Features: featureRow(rng), GPU: 2, Cluster: int32(i)}
	}
	sameRow := func(what string, got []float64, want []float64) {
		t.Helper()
		if len(got) != counters.Num {
			t.Fatalf("%s: row is %d wide", what, len(got))
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: column %d = %v, caller sent %v", what, j, got[j], want[j])
			}
		}
	}
	shadow := &shadowRows{}
	for name, arm := range map[string]func(*Server){
		"flightrec": func(s *Server) { s.EnableProvenance(64, provenance.MonitorOptions{}) },
		"ledger":    func(s *Server) { s.SetLedger(ledger.New(ledger.Options{})) },
		"shadow": func(s *Server) {
			s.EnableProvenance(64, provenance.MonitorOptions{})
			s.SetShadow(shadow)
		},
	} {
		srv, err := NewServer(testModel(t, 54), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := srv.Columns(); got != projected {
			t.Fatalf("%s: before arming the engine reads %#x, want %#x", name, got, uint64(projected))
		}
		arm(srv)
		if got := srv.Columns(); got != AllColumns {
			t.Fatalf("%s: armed engine reads %#x, want every column", name, got)
		}
		cl, err := Dial(listenServer(t, srv))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for round := 0; round < 3; round++ {
			if _, err := cl.DecideKeyed(rows); err != nil {
				t.Fatal(err)
			}
			if cl.Columns() != AllColumns || len(cl.req) != headerLen+rowsHeadLen+len(rows)*(reqRowFixed+8+8*counters.Num) {
				t.Fatalf("%s round %d: client sends %#x in %d bytes", name, round, cl.Columns(), len(cl.req))
			}
		}
		if got := srv.Metrics().RequestColumns.Value(); got != counters.Num {
			t.Fatalf("%s: serve_request_columns = %v, want %d", name, got, counters.Num)
		}
		if rec := srv.FlightRecorder(); rec != nil {
			recs := rec.Snapshot(nil)
			if len(recs) != 3*len(rows) {
				t.Fatalf("%s: %d records for %d rows", name, len(recs), 3*len(rows))
			}
			for i, r := range recs {
				sameRow(name+" record", r.RawFeatures(), rows[i%len(rows)].Features)
			}
		}
		if l := srv.Ledger(); l != nil {
			if snap := l.Snapshot(); snap.Decisions != int64(3*len(rows)) || snap.Skipped != 0 {
				t.Fatalf("%s: ledger priced %d decisions and skipped %d of %d", name, snap.Decisions, snap.Skipped, 3*len(rows))
			}
		}
	}
	shadow.mu.Lock()
	defer shadow.mu.Unlock()
	if len(shadow.rows) != 3*len(rows) {
		t.Fatalf("shadow observer saw %d rows, want %d", len(shadow.rows), 3*len(rows))
	}
	for i, row := range shadow.rows {
		sameRow("shadow", row, rows[i%len(rows)].Features)
	}
}

// TestRejectedRowStillFallsBack: range checking follows the columns. A NaN
// in a column the frame carries is rejected and answered by the fallback
// exactly as a full row is today; a NaN in a column a projecting client
// leaves out never reaches the server, and the model — which does not
// read it — answers. On a full frame (the connection's first) that same
// row is still rejected.
func TestRejectedRowStillFallsBack(t *testing.T) {
	srv, err := NewServer(testModel(t, 55), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(testModel(t, 55), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(listenServer(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(55))
	clean := Request{Preset: 0.1, Features: featureRow(rng), GPU: 1, Cluster: 1}
	poison := func(col int) Request {
		r := clean
		r.Features = append([]float64(nil), clean.Features...)
		r.Features[col] = math.NaN()
		return r
	}
	const unread = 40 // no model feature, no fallback input
	rows := []Request{clean, poison(counters.IdxIPC), poison(counters.IdxStallControl), poison(unread)}
	full := ref.DecideBatch(rows, nil)
	for i, want := range []provenance.Reason{provenance.ReasonModel, provenance.ReasonRejected, provenance.ReasonRejected, provenance.ReasonRejected} {
		if full[i].Reason != want {
			t.Fatalf("full row %d: reason %v, want %v", i, full[i].Reason, want)
		}
	}

	first, err := cl.DecideKeyed(rows)
	if err != nil {
		t.Fatal(err)
	}
	sameDecisions(t, "full first frame", first, full)

	if cl.Columns() != projected {
		t.Fatalf("client sends %#x after its first answer, want %#x", cl.Columns(), uint64(projected))
	}
	second, err := cl.DecideKeyed(rows)
	if err != nil {
		t.Fatal(err)
	}
	sameDecisions(t, "projected, NaN in sent columns", second[:3], full[:3])
	want := full[0] // the clean row's answer: column 40 is nobody's input
	if got := second[3]; got.Reason != provenance.ReasonModel || got.Level != want.Level || got.PredInstr != want.PredInstr {
		t.Fatalf("projected, NaN in an unsent column: %+v, want the model's %+v", got, want)
	}
	if got := srv.Metrics().RejectedRows.Load(); got != 3+2 {
		t.Fatalf("rejected rows = %d, want 5", got)
	}
}

// TestClientRedialsAfterDrop: without retries a dropped connection fails
// the call it drops and no other — the next call dials the address again,
// counts a reconnect, and starts over from full rows.
func TestClientRedialsAfterDrop(t *testing.T) {
	srv, err := NewServer(testModel(t, 56), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for n := 0; ; n++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if n == 0 {
				// The first connection is answered once and dies with the
				// second frame unread.
				go func() {
					defer conn.Close()
					var fs FrameScratch
					frame, err := ReadFrame(conn, nil)
					if err != nil {
						return
					}
					reply, _, _, _ := fs.Answer(frame, srv, time.Now())
					WriteFrame(conn, reply)
					ReadFrame(conn, nil)
				}()
				continue
			}
			go srv.ServeConn(conn)
		}
	}()

	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(56))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng), GPU: 1, Cluster: 2}}
	want, err := cl.DecideKeyed(rows)
	if err != nil || cl.Columns() != projected {
		t.Fatalf("call 0: %v, mask %#x", err, cl.Columns())
	}
	want = append([]Decision(nil), want...)
	if _, err := cl.DecideKeyed(rows); err == nil {
		t.Fatal("call 1 succeeded on a connection the peer closed")
	}
	if cl.Reconnects() != 0 {
		t.Fatalf("%d reconnects before the next call", cl.Reconnects())
	}
	got, err := cl.DecideKeyed(rows)
	if err != nil {
		t.Fatalf("call 2: %v", err)
	}
	sameDecisions(t, "after the redial", got, want)
	if cl.Reconnects() != 1 {
		t.Fatalf("reconnects = %d, want 1", cl.Reconnects())
	}
	if len(cl.req) != headerLen+rowsHeadLen+reqRowFixed+8+8*counters.Num {
		t.Fatalf("first frame on the new connection is %d bytes: not full width", len(cl.req))
	}

	// A wrapped connection has no address to dial: it keeps failing.
	client, server := net.Pipe()
	server.Close()
	wrapped := NewClient(client)
	for call := 0; call < 2; call++ {
		if _, err := wrapped.DecideKeyed(rows); err == nil {
			t.Fatalf("wrapped client call %d succeeded on a dead pipe", call)
		}
	}
	if wrapped.Reconnects() != 0 {
		t.Fatalf("wrapped client reconnected %d times", wrapped.Reconnects())
	}
}

// TestClientStopsChasingColumns: a refusal makes the client send again
// under the mask it names; a second refusal in the same call makes it send
// full rows, which any honest peer answers; and a peer that refuses even
// those fails the call instead of spinning it.
func TestClientStopsChasingColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng), GPU: 1, Cluster: 2}}
	const maskA, maskB = projected, projected | 1<<40
	for name, script := range map[string][]uint64{ // the mask each reply names; 0 answers
		"answered after two refusals": {maskA, maskB, 0},
		"refused for ever":            {maskA, maskB, maskA, maskA},
	} {
		client, server := net.Pipe()
		var got []uint64 // the mask of each frame the peer saw
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer server.Close()
			for _, names := range script {
				frame, err := ReadFrame(server, nil)
				if err != nil {
					return
				}
				reqs, mask, _, _, err := DecodeRequest(frame, nil)
				if err != nil {
					return
				}
				got = append(got, mask)
				status, need, decs := byte(StatusColumns), names, []Decision(nil)
				if names == 0 {
					status, need, decs = StatusOK, maskB, make([]Decision, len(reqs))
				}
				reply, _ := AppendResponse(nil, status, need, decs, false, 0, HopTimings{})
				if WriteFrame(server, reply) != nil {
					return
				}
			}
		}()
		cl := NewClient(client)
		decs, err := cl.DecideKeyed(rows)
		client.Close()
		<-done
		if want := []uint64{AllColumns, maskA, AllColumns}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Fatalf("%s: the peer saw frames under %#x, want %#x", name, got, want)
		}
		if answered := script[len(script)-1] == 0; answered != (err == nil) || (answered && (len(decs) != 1 || cl.Columns() != maskB)) {
			t.Fatalf("%s: %d decisions, err %v, client left on mask %#x", name, len(decs), err, cl.Columns())
		}
	}
}

// TestColumnsAreVisible: the column set shows on /healthz by name and on
// the Prometheus exposition as a gauge and a resend counter, lint-clean.
func TestColumnsAreVisible(t *testing.T) {
	srv, err := NewServer(testModel(t, 57), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var hz struct {
		Columns []string `json:"columns"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	names := counters.Names()
	var want []string
	for m := uint64(projected); m != 0; m &= m - 1 {
		want = append(want, names[bits.TrailingZeros64(m)])
	}
	if len(hz.Columns) != 8 || !slices.Equal(hz.Columns, want) {
		t.Fatalf("/healthz columns = %v, want %v", hz.Columns, want)
	}

	// One frame a column short: sent back, counted as a resend and as
	// nothing else.
	rng := rand.New(rand.NewSource(57))
	short, err := appendRequest(nil, []Request{{Preset: 0.1, Features: featureRow(rng)}}, projected&^1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fs FrameScratch
	reply, n, _, err := fs.Answer(short, srv, time.Now())
	if _, _, need, derr := decodeResponse(reply, nil, MsgDecisionsKeyed); err != nil || n != 0 || derr != errColumns || need != projected {
		t.Fatalf("short frame: served %d rows, err %v, reply %v naming %#x", n, err, derr, need)
	}

	var buf bytes.Buffer
	if err := srv.Telemetry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if errs := telemetry.LintProm(bytes.NewReader(buf.Bytes())); len(errs) != 0 {
		t.Fatalf("exposition does not lint: %v", errs)
	}
	for _, line := range []string{"serve_request_columns 8\n", "serve_column_resends_total 1\n", "serve_errors_total 0\n", "serve_batches_total 0\n"} {
		if !bytes.Contains(buf.Bytes(), []byte(line)) {
			t.Errorf("exposition lacks %q", line)
		}
	}
}
