package telemetry

import (
	"fmt"
	"io"
	"sync"
)

// Logger is the progress logger behind the pipeline and the CLIs. It is
// quiet unless given an output writer, counts every line into an optional
// registry counter (so even silenced runs leave a record of how chatty
// they were), and a nil *Logger is a valid silent logger — callers never
// nil-check.
type Logger struct {
	mu    sync.Mutex
	out   io.Writer
	fn    func(format string, args ...any)
	lines *Counter
}

// NewLogger returns a logger writing to out (nil out = quiet). When reg
// is non-nil, every Logf call increments log_lines_total in it.
func NewLogger(out io.Writer, reg *Registry) *Logger {
	l := &Logger{out: out}
	if reg != nil {
		l.lines = reg.Counter("log_lines_total")
	}
	return l
}

// NewLoggerFunc returns a logger that forwards format and args verbatim
// to fn (nil fn = quiet) — the adapter for pre-telemetry printf-style
// Logf callbacks, whose callers may inspect the raw format string.
func NewLoggerFunc(fn func(format string, args ...any), reg *Registry) *Logger {
	l := &Logger{fn: fn}
	if reg != nil {
		l.lines = reg.Counter("log_lines_total")
	}
	return l
}

// Logf records one progress line, appending a newline on writer-backed
// loggers. It is safe for concurrent use: both writer- and func-backed
// sinks are serialized by the logger's mutex, so parallel pipeline
// shards can share one logger (and one capture callback) freely.
func (l *Logger) Logf(format string, args ...any) {
	if l == nil {
		return
	}
	if l.lines != nil {
		l.lines.Add(1)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fn != nil {
		l.fn(format, args...)
		return
	}
	if l.out == nil {
		return
	}
	fmt.Fprintf(l.out, format+"\n", args...)
}
