package provenance

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Recorder is the flight recorder: a fixed-capacity ring buffer of the
// last N decision Records. Writers claim sequence numbers with one atomic
// add (one per batch) and copy each record into its slot as a plain
// struct under that slot's own lock, so recording is allocation-free and
// costs two atomic operations per record. A slot only ever moves forward:
// it keeps the record with the larger Seq, so a writer that was delayed
// for a whole lap of the ring cannot replace the newer record that lapped
// it, and a reader never sees a torn one.
//
// The only thing a writer can wait for is one record copy, and only when
// a Snapshot reader (or a writer a full lap away) holds the very same
// slot at that moment; writers to different slots never meet.
type Recorder struct {
	head  atomic.Uint64 // total records ever written
	slots []slot
}

type slot struct {
	mu  sync.Mutex
	rec Record
}

// DefaultCapacity is the ring size used when a caller passes n <= 0.
const DefaultCapacity = 4096

// NewRecorder returns a recorder keeping the last n records (n <= 0
// takes DefaultCapacity).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultCapacity
	}
	return &Recorder{slots: make([]slot, n)}
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Head returns the total number of records ever written; the ring holds
// the most recent min(Head, Cap) of them.
func (r *Recorder) Head() uint64 {
	if r == nil {
		return 0
	}
	return r.head.Load()
}

// Record captures one decision. It assigns rec.Seq (1-based, monotonic
// across the recorder's lifetime), then publishes a copy of *rec into
// the ring. Safe for any number of concurrent callers; a nil recorder is
// a free no-op, so hot paths need no branching at call sites beyond the
// nil check the compiler can hoist.
func (r *Recorder) Record(rec *Record) {
	if r == nil {
		return
	}
	rec.Seq = r.head.Add(1)
	r.publish(rec)
}

// RecordBatch is Record for a run of decisions: one atomic add claims
// len(recs) consecutive sequence numbers, assigned in slice order.
func (r *Recorder) RecordBatch(recs []Record) {
	if r == nil || len(recs) == 0 {
		return
	}
	seq := r.head.Add(uint64(len(recs))) - uint64(len(recs))
	for i := range recs {
		seq++
		recs[i].Seq = seq
		r.publish(&recs[i])
	}
}

// publish copies rec (Seq already assigned) into its slot unless the slot
// already holds a newer record.
func (r *Recorder) publish(rec *Record) {
	s := &r.slots[(rec.Seq-1)%uint64(len(r.slots))]
	s.mu.Lock()
	if rec.Seq > s.rec.Seq {
		s.rec = *rec
	}
	s.mu.Unlock()
}

// Snapshot appends a consistent copy of the ring's current contents to
// dst, oldest first, and returns it. A slot whose claimed write has not
// landed yet, or that already holds a newer lap than the iteration
// expected, is skipped, so the result may hold fewer than Cap records
// even on a full ring under write load.
func (r *Recorder) Snapshot(dst []Record) []Record {
	if r == nil {
		return dst
	}
	head := r.head.Load()
	n := uint64(len(r.slots))
	start := uint64(0)
	if head > n {
		start = head - n
	}
	// Grown up front so no slot lock is held across an allocation.
	dst = slices.Grow(dst, int(head-start))
	for g := start; g < head; g++ {
		s := &r.slots[g%n]
		s.mu.Lock()
		if s.rec.Seq == g+1 {
			dst = append(dst, s.rec)
		}
		s.mu.Unlock()
	}
	return dst
}
