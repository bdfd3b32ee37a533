package datagen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// The corpus decoder. Load reads the one form Save writes: compact JSON,
// `{"counter_names":[…],"levels":N,"samples":[…]}`, each sample's seven
// keys in declaration order, each once, and no whitespace but after the
// closing brace. Any other input is refused at the offset where it
// departs from that form. It decodes in one pass, without reflection and
// with allocations per corpus rather than per sample. What it accepts,
// encoding/json decodes to the same Dataset bit for bit, and Save of any
// Dataset that validate accepts loads back; FuzzDatasetDecode holds it
// to both.

// chunkFloats is the size of the shared chunks feature vectors are carved
// from (32 KiB, about 87 rows of 47 counters).
const chunkFloats = 4096

// decoder is one decode of one input. Its first error is sticky: every
// step after it does nothing, so a decode reads as the form it expects.
type decoder struct {
	data []byte
	off  int
	err  error
	// chunk is the unused tail of the current feature chunk: len 0, and
	// cap the floats still free.
	chunk []float64
	// strs interns decoded strings: a corpus names a handful of kernels
	// thousands of times.
	strs map[string]string
}

// decodeDataset decodes data, the whole input, into ds.
func decodeDataset(data []byte, ds *Dataset) error {
	d := decoder{data: data, strs: make(map[string]string)}
	d.lit(`{"counter_names":`)
	decodeList(&d, &ds.CounterNames, d.text)
	d.lit(`,"levels":`)
	d.integer(&ds.Levels)
	d.lit(`,"samples":`)
	decodeList(&d, &ds.Samples, d.sample)
	d.lit(`}`)
	for ; d.err == nil && d.off < len(data); d.off++ {
		if c := data[d.off]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			d.fail("found %q after the dataset", c)
		}
	}
	return d.err
}

// sample decodes the sample object at d.off into s.
func (d *decoder) sample(s *Sample) {
	d.lit(`{"kernel":`)
	d.text(&s.Kernel)
	d.lit(`,"breakpoint":`)
	d.integer(&s.Breakpoint)
	d.lit(`,"cluster":`)
	d.integer(&s.Cluster)
	d.lit(`,"level":`)
	d.integer(&s.Level)
	d.lit(`,"features":`)
	d.features(&s.Features)
	d.lit(`,"perf_loss":`)
	d.float(&s.PerfLoss)
	d.lit(`,"scaling_instr":`)
	d.float(&s.ScalingInstr)
	d.lit(`}`)
}

// readInput reads all of r. When r reports its size (LoadFile hands Load
// an *os.File), it reads in one allocation, as os.ReadFile does.
func readInput(r io.Reader) ([]byte, error) {
	size := -1
	switch r := r.(type) {
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	case interface{ Len() int }:
		size = r.Len()
	}
	if size < 0 {
		return io.ReadAll(r)
	}
	data := make([]byte, 0, size+1) // one byte more for the read that sees EOF
	for {
		n, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return data, err
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// fail records the decode's first error, at d.off.
func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

// peek returns the byte at d.off, or 0 at the end of the input.
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// lit consumes s, failing at the first byte that differs from it.
func (d *decoder) lit(s string) {
	if d.err != nil {
		return
	}
	if end := d.off + len(s); end <= len(d.data) && string(d.data[d.off:end]) == s {
		d.off = end
		return
	}
	for i := 0; i < len(s); i, d.off = i+1, d.off+1 {
		if d.off >= len(d.data) {
			d.fail("unexpected end of input, want %q", s[i:])
			return
		}
		if d.data[d.off] != s[i] {
			d.fail("found %q, want %q", d.data[d.off], s[i:])
			return
		}
	}
}

// list consumes the start of a list: '[', or null, which leaves the list
// nil. It reports whether a list is open.
func (d *decoder) list() bool {
	if d.peek() == 'n' {
		d.lit("null")
		return false
	}
	d.lit("[")
	return d.err == nil
}

// more reports whether the open list has another element, consuming the
// ',' before any element but the first, or else the closing ']'.
func (d *decoder) more(first bool) bool {
	switch c := d.peek(); {
	case d.err != nil:
		return false
	case c == ']':
		d.off++
		return false
	case !first && c == ',':
		d.off++
	case !first:
		d.lit(",")
	}
	return d.err == nil
}

// decodeList decodes the list at d.off into *s, one element at a time
// with elem; an empty list is a non-nil empty slice.
func decodeList[T any](d *decoder, s *[]T, elem func(*T)) {
	if !d.list() {
		return
	}
	v := []T{}
	for first := true; d.more(first); first = false {
		var zero T
		v = append(v, zero)
		elem(&v[len(v)-1])
	}
	*s = v
}

// features decodes the list at d.off into *f, carved from the shared
// chunk with len == cap, so an append to one sample's features never
// writes into another's.
func (d *decoder) features(f *[]float64) {
	if !d.list() {
		return
	}
	row := d.chunk[:0]
	for first := true; d.more(first); first = false {
		if len(row) == cap(row) {
			grown := make([]float64, len(row), max(chunkFloats, 2*len(row)))
			copy(grown, row)
			row = grown
		}
		row = row[:len(row)+1]
		d.float(&row[len(row)-1])
	}
	if len(row) == 0 {
		*f = []float64{}
		return
	}
	*f = row[:len(row):len(row)]
	d.chunk = row[len(row):]
}

// text decodes the string at d.off into *s. A token with no backslash
// and only ASCII bytes is taken from the input as it stands; any other
// goes through encoding/json, so escapes, surrogates and invalid UTF-8
// come out as encoding/json decodes them.
func (d *decoder) text(s *string) {
	if d.err != nil || d.peek() != '"' {
		d.lit(`"`)
		return
	}
	p, plain := d.off+1, true
	for ; p < len(d.data) && d.data[p] != '"'; p++ {
		switch c := d.data[p]; {
		case c == '\\':
			plain = false
			p++ // the escaped byte; json.Unmarshal checks the escape
		case c < 0x20:
			d.off = p
			d.fail("control character %q in a string", c)
			return
		case c >= 0x80:
			plain = false
		}
	}
	if p >= len(d.data) {
		d.off = len(d.data)
		d.fail("unexpected end of input in a string")
		return
	}
	tok := d.data[d.off : p+1]
	b := tok[1 : len(tok)-1]
	if !plain {
		var v string
		if err := json.Unmarshal(tok, &v); err != nil {
			d.fail("%v", err)
			return
		}
		b = []byte(v)
	}
	v, ok := d.strs[string(b)]
	if !ok {
		v = string(b)
		d.strs[v] = v
	}
	*s = v
	d.off = p + 1
}

// number scans the JSON number at d.off, checking its grammar: an
// optional '-', then 0 or a digit string without a leading zero, then an
// optional fraction and exponent. It returns the literal, nil on a failed
// decode, and whether it is an integer (no fraction or exponent).
func (d *decoder) number() (lit []byte, integer bool) {
	if d.err != nil {
		return nil, false
	}
	data, p := d.data, d.off
	if p < len(data) && data[p] == '-' {
		p++
	}
	if p < len(data) && data[p] == '0' {
		p++
	} else {
		p = d.digits(p)
	}
	integer = true
	if p < len(data) && data[p] == '.' {
		integer = false
		p = d.digits(p + 1)
	}
	if p < len(data) && (data[p] == 'e' || data[p] == 'E') {
		integer = false
		p++
		if p < len(data) && (data[p] == '+' || data[p] == '-') {
			p++
		}
		p = d.digits(p)
	}
	if d.err != nil {
		return nil, false
	}
	lit, d.off = data[d.off:p], p
	return lit, integer
}

// digits returns the index of the first byte at or after p that is not a
// decimal digit, failing if the byte at p is not one.
func (d *decoder) digits(p int) int {
	data, q := d.data, p
	for q < len(data) && '0' <= data[q] && data[q] <= '9' {
		q++
	}
	if q == p {
		d.off = p
		d.fail("invalid number")
	}
	return q
}

// float decodes the number at d.off into *f. An integer of at most 15
// digits converts exactly, digit by digit (and -0 stays −0); any other
// literal goes through strconv.ParseFloat, the call encoding/json makes,
// so out-of-range values fail as they do there.
func (d *decoder) float(f *float64) {
	start := d.off
	lit, integer := d.number()
	if lit == nil {
		return
	}
	if digits := bytes.TrimPrefix(lit, []byte("-")); integer && len(digits) <= 15 {
		var v float64
		for _, c := range digits {
			v = v*10 + float64(c-'0')
		}
		if len(digits) < len(lit) {
			v = -v
		}
		*f = v
		return
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.off = start
		d.fail("number %s does not fit a float64", lit)
		return
	}
	*f = v
}

// integer decodes the number at d.off into *n with strconv.ParseInt, as
// encoding/json does: a fraction, an exponent or an overflow fails.
func (d *decoder) integer(n *int) {
	start := d.off
	lit, _ := d.number()
	if lit == nil {
		return
	}
	v, err := strconv.ParseInt(string(lit), 10, 0)
	if err != nil {
		d.off = start
		d.fail("number %s is not an int", lit)
		return
	}
	*n = int(v)
}
