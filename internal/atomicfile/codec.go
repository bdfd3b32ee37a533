package atomicfile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// WriteJSON encodes v as one JSON document and writes it to path
// atomically — the shared file codec behind every Save/SaveFile pair
// (datasets, models, experiment results), so all artifacts get the same
// torn-write guarantee and encoding.
func WriteJSON(path string, v any) error {
	return Write(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(v)
	})
}

// ReadJSON reads path and decodes its JSON content into v, the inverse
// of WriteJSON for types without bespoke validation.
func ReadJSON(path string, v any) error {
	_, err := ReadWith(path, func(r io.Reader) (any, error) {
		return nil, json.NewDecoder(r).Decode(v)
	})
	return err
}

// ReadWith opens path and hands its contents to load, naming the file in
// any error load returns. It is the one file reader: core.LoadFile,
// datagen.LoadFile, epochtrace.ReadFile and the Read*File functions of
// telemetry and ledger are each ReadWith over their format's reader, so
// a file is decoded and checked exactly as a stream of its bytes is.
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
