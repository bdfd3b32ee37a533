package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestEventLogRetainsOrderAndWraps(t *testing.T) {
	reg := NewRegistry()
	l := NewEventLog(reg)
	const over = 2
	const n = EventCapacity + over
	for i := 0; i < n; i++ {
		l.Append(Event{Kind: fmt.Sprintf("k%d", i), Time: time.Unix(int64(i), 0)})
	}
	if got := reg.Snapshot().Counters["events_total"]; got != n {
		t.Fatalf("events_total = %d, want %d", got, n)
	}
	evs := l.Snapshot(nil)
	if len(evs) != EventCapacity {
		t.Fatalf("retained %d events, want %d", len(evs), EventCapacity)
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("k%d", i+over); ev.Kind != want {
			t.Fatalf("event %d kind = %s, want %s (oldest-first after wrap)", i, ev.Kind, want)
		}
	}
}

func TestEventLogStampsTimeAndCounts(t *testing.T) {
	reg := NewRegistry()
	l := NewEventLog(reg)
	before := time.Now()
	l.Append(Event{Kind: "promote", Reason: "beat incumbent", Detail: map[string]any{"gen": 2}})
	evs := l.Snapshot(nil)
	if len(evs) != 1 || evs[0].Time.Before(before) {
		t.Fatalf("events = %+v", evs)
	}
	if n := reg.Snapshot().Counters["events_total"]; n != 1 {
		t.Fatalf("events_total = %d, want 1", n)
	}
}

func TestEventLogConcurrentAndNil(t *testing.T) {
	var nilLog *EventLog
	nilLog.Append(Event{Kind: "x"})
	if nilLog.Snapshot(nil) != nil {
		t.Fatal("nil log not a no-op")
	}

	reg := NewRegistry()
	l := NewEventLog(reg)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Append(Event{Kind: "tick"})
				l.Snapshot(nil)
			}
		}(w)
	}
	wg.Wait()
	if n := reg.Snapshot().Counters["events_total"]; n != 800 {
		t.Fatalf("events_total = %d, want 800", n)
	}
}
