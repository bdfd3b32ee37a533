package atomicfile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// readPayload reads a WriteJSON file back, the way the Fig. 4 result is
// read: ReadWith over a JSON decoder.
func readPayload(path string) (payload, error) {
	return ReadWith(path, func(r io.Reader) (got payload, err error) {
		return got, json.NewDecoder(r).Decode(&got)
	})
}

func TestWriteReadJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.json")
	want := payload{Name: "x", Values: []float64{1, 2.5, -3}}
	if err := WriteJSON(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readPayload(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || len(got.Values) != 3 || got.Values[1] != 2.5 {
		t.Fatalf("round trip corrupted: %+v", got)
	}
}

func TestWriteJSONMatchesPlainEncoder(t *testing.T) {
	// The codec must be byte-compatible with the hand-rolled
	// json.NewEncoder(w).Encode pairs it replaces, so old artifacts load.
	path := filepath.Join(t.TempDir(), "p.json")
	if err := WriteJSON(path, payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\"name\":\"x\",\"values\":null}\n"; string(raw) != want {
		t.Fatalf("encoding drifted: %q, want %q", raw, want)
	}
}

func TestReadJSONErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := readPayload(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readPayload(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("corrupt JSON: err = %v, want an error naming %s", err, bad)
	}
}

func TestReadWith(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.txt")
	if err := os.WriteFile(path, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWith(path, func(r io.Reader) (string, error) {
		b, err := io.ReadAll(r)
		return string(b), err
	})
	if err != nil || got != "hello" {
		t.Fatalf("ReadWith = (%q, %v)", got, err)
	}
	// Errors from the load func must flow through, naming the file.
	if _, err := ReadWith(path, func(io.Reader) (string, error) {
		return "", fmt.Errorf("shape mismatch")
	}); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "shape mismatch") {
		t.Fatalf("load error = %v, want shape mismatch naming %s", err, path)
	}
	if _, err := ReadWith(filepath.Join(dir, "missing"), func(io.Reader) (string, error) {
		return "", nil
	}); err == nil {
		t.Fatal("missing file accepted")
	}
}
