package atomicfile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// WriteJSON encodes v as one JSON document and writes it to path
// atomically, for artifacts without a Save of their own (the Fig. 4
// result).
func WriteJSON(path string, v any) error {
	return Write(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(v)
	})
}

// ReadWith opens path and hands its contents to load, naming the file in
// any error load returns. It is the one file reader: core.LoadFile,
// datagen.LoadFile, epochtrace.ReadFile, provenance.ReadFile and the
// Read*File functions of telemetry and ledger are each ReadWith over
// their format's reader, so a file is decoded and checked exactly as a
// stream of its bytes is.
func ReadWith[T any](path string, load func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("atomicfile: %w", err)
	}
	defer f.Close()
	v, err := load(f)
	if err != nil {
		return v, fmt.Errorf("atomicfile: %s: %w", path, err)
	}
	return v, nil
}
