package telemetry

import (
	"sync"
	"time"
)

// Event is one timestamped structured entry in an EventLog: a named
// state transition (Kind) with an optional free-form reason and an
// arbitrary JSON-friendly detail payload.
type Event struct {
	Time   time.Time      `json:"time"`
	Kind   string         `json:"kind"`
	Reason string         `json:"reason,omitempty"`
	Detail map[string]any `json:"detail,omitempty"`
}

// EventLog is a bounded in-memory ring of structured events — the
// lightweight audit trail behind state machines that must answer "what
// happened and in what order" long after the fact (the adaptation
// controller's shadow/canary/rollback transitions, for one). Unlike the
// metrics registry it keeps *history*, not aggregates; unlike the flight
// recorder it is low-rate and mutex-guarded, trading hot-path cost for
// arbitrary payloads. A nil *EventLog is a valid no-op sink.
type EventLog struct {
	mu      sync.Mutex
	ring    []Event
	pos     int
	n       int
	counter *Counter
}

// EventCapacity is how many events an EventLog retains.
const EventCapacity = 256

// NewEventLog returns a log retaining the last EventCapacity
// events. When reg is non-nil, every append increments its unlabelled
// events_total counter.
func NewEventLog(reg *Registry) *EventLog {
	l := &EventLog{ring: make([]Event, EventCapacity)}
	if reg != nil {
		l.counter = reg.Counter("events_total")
	}
	return l
}

// Append records one event, stamping the time if ev.Time is zero.
func (l *EventLog) Append(ev Event) {
	if l == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	if l.counter != nil {
		l.counter.Add(1)
	}
	l.mu.Lock()
	l.ring[l.pos] = ev
	l.pos = (l.pos + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.mu.Unlock()
}

// Snapshot appends a copy of the retained events to dst, oldest first,
// and returns it.
func (l *EventLog) Snapshot(dst []Event) []Event {
	if l == nil {
		return dst
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	start := l.pos - l.n
	if start < 0 {
		start += len(l.ring)
	}
	for i := 0; i < l.n; i++ {
		dst = append(dst, l.ring[(start+i)%len(l.ring)])
	}
	return dst
}
