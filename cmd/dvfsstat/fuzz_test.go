package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ssmdvfs/internal/telemetry"
)

// FuzzReadSnapshot: a registry dump telemetry.ReadSnapshot accepts goes
// through the -metrics summary without a panic and writes, as
// Registry.WriteJSON writes, to bytes that read and write back the same.
func FuzzReadSnapshot(f *testing.F) {
	path := filepath.Join(f.TempDir(), "metrics.json")
	writeFixtureMetrics(f, path)
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	write := func(s telemetry.Snapshot) []byte {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			f.Fatalf("an accepted snapshot does not write: %v", err)
		}
		return b.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := telemetry.ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		summarizeMetrics(io.Discard, s)
		once := write(s)
		back, err := telemetry.ReadSnapshot(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("a written snapshot does not read back: %v", err)
		}
		if twice := write(back); !bytes.Equal(once, twice) {
			t.Fatalf("write→read→write differs:\n%s\n%s", once, twice)
		}
	})
}

// FuzzReadSpans: spans telemetry.ReadSpans accepts go through the -spans
// summary and the Chrome trace export without a panic.
func FuzzReadSpans(f *testing.F) {
	var b bytes.Buffer
	tr := telemetry.NewTracer(&b)
	tr.Start("datagen").End()
	tr.Start("train", "epochs", "50").End()
	if err := tr.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(b.Bytes())
	f.Add([]byte(`{"name":"a","trace_id":"00000000000000010000000000000002","dur_us":3}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := telemetry.ReadSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		summarizeSpans(io.Discard, spans)
		if err := telemetry.WriteChromeTraceMulti(io.Discard, [][]telemetry.SpanRecord{spans}, []string{"fuzz"}); err != nil {
			t.Fatalf("accepted spans do not export: %v", err)
		}
	})
}
