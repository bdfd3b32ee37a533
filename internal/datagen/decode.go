package datagen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// The corpus decoder. Load reads a dataset with a decoder written for the
// Dataset schema: one pass over the bytes, no reflection, and allocations
// per corpus rather than per sample. Its contract is encoding/json's: on
// any input it fails where json.NewDecoder(r).Decode(&d) fails, and
// otherwise yields a bit-identical Dataset. That fixes every rule below —
// exact-then-case-folded key matching, null leaving a scalar as it was and
// setting a slice to nil, a repeated key decoding into what the first one
// left, int fields refusing fractions and exponents, 1e400 failing in a
// float field, and the bytes after the first value being ignored.
// FuzzDatasetDecode holds the decoder to that contract.

// maxDepth is encoding/json's nesting limit: a value nested deeper than
// this many objects and arrays is a syntax error.
const maxDepth = 10000

// chunkFloats is the size of the shared chunks feature vectors are carved
// from (32 KiB, about 87 rows of 47 counters).
const chunkFloats = 4096

var (
	datasetKeys = []string{"counter_names", "levels", "samples"}
	sampleKeys  = []string{"kernel", "breakpoint", "cluster", "level", "features", "perf_loss", "scaling_instr"}
)

// decoder is one decode of one input.
type decoder struct {
	data  []byte
	off   int
	depth int
	// chunk is the unused tail of the current feature chunk: len 0, and
	// cap the floats still free.
	chunk []float64
	// strs interns decoded strings: a corpus names a handful of kernels
	// thousands of times.
	strs map[string]string
}

// decodeDataset decodes the first JSON value in data into d, as
// json.Decoder.Decode would, and ignores the bytes after it.
func decodeDataset(data []byte, d *Dataset) error {
	dec := decoder{data: data, strs: make(map[string]string)}
	dec.ws()
	if dec.off == len(data) {
		return io.EOF
	}
	switch data[dec.off] {
	case '{':
		return dec.dataset(d)
	case 'n':
		return dec.null()
	}
	return dec.typeErr("a dataset object")
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

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// syntaxErr reports the byte at d.off, or the end of the input.
func (d *decoder) syntaxErr(context string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("offset %d: %w %s", d.off, io.ErrUnexpectedEOF, context)
	}
	return d.errorf("invalid character %q %s", d.data[d.off], context)
}

// typeErr reports a value at d.off that is valid JSON but not what the
// field holds. encoding/json validates the whole value before decoding
// and then fails on the mismatch, so failing at once is the same outcome;
// a malformed value fails either way.
func (d *decoder) typeErr(want string) error {
	if d.off >= len(d.data) {
		return d.syntaxErr("looking for beginning of value")
	}
	return d.errorf("cannot decode a value starting %q into %s", d.data[d.off], want)
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	data, p := d.data, d.off
	for p < len(data) && (data[p] == ' ' || data[p] == '\t' || data[p] == '\n' || data[p] == '\r') {
		p++
	}
	d.off = p
}

// peek returns the byte at d.off, or 0 at the end of the input.
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// null consumes the literal null.
func (d *decoder) null() error { return d.literal("null") }

func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.off >= len(d.data) || d.data[d.off] != lit[i] {
			return d.syntaxErr("in literal " + lit)
		}
		d.off++
	}
	return nil
}

// open consumes the '{' or '[' at d.off.
func (d *decoder) open() error {
	d.depth++
	if d.depth > maxDepth {
		return d.errorf("exceeded max depth")
	}
	d.off++
	return nil
}

// next moves to the next member of the object or element of the array
// open at d.off (close is '}' or ']'): it consumes the ',' before any
// member but the first, or the closing byte, and reports done at the
// latter.
func (d *decoder) next(close byte, first bool) (done bool, err error) {
	d.ws()
	if d.peek() == close {
		d.off++
		d.depth--
		return true, nil
	}
	if !first {
		if d.peek() != ',' {
			return false, d.syntaxErr("after element")
		}
		d.off++
		d.ws()
	}
	return false, nil
}

// key reads the key of the next member of an object, and the ':' after
// it, and returns the index of the field it names in fields, or -1. A key
// matches its field exactly first, then case-insensitively, as in
// encoding/json.
func (d *decoder) key(fields []string) (int, error) {
	if d.peek() != '"' {
		return 0, d.syntaxErr("looking for beginning of object key string")
	}
	tok, plain, err := d.stringToken()
	if err != nil {
		return 0, err
	}
	k := tok[1 : len(tok)-1]
	if !plain {
		var s string
		if err := json.Unmarshal(tok, &s); err != nil {
			return 0, err
		}
		k = []byte(s)
	}
	d.ws()
	if d.peek() != ':' {
		return 0, d.syntaxErr("after object key")
	}
	d.off++
	d.ws()
	for i, f := range fields {
		if string(k) == f {
			return i, nil
		}
	}
	for i, f := range fields {
		if bytes.EqualFold(k, []byte(f)) {
			return i, nil
		}
	}
	return -1, nil
}

// stringToken scans the string token at d.off, checking it as encoding/json's
// scanner does: no control bytes, and only the escapes JSON defines. It
// returns the token with its quotes, and whether it is plain — ASCII
// without a backslash, so that the bytes between the quotes are its value.
func (d *decoder) stringToken() (tok []byte, plain bool, err error) {
	start := d.off
	d.off++
	plain = true
	for d.off < len(d.data) {
		c := d.data[d.off]
		switch {
		case c == '"':
			d.off++
			return d.data[start:d.off], plain, nil
		case c == '\\':
			plain = false
			d.off++
			if d.off >= len(d.data) {
				return nil, false, d.syntaxErr("in string escape code")
			}
			switch d.data[d.off] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.off++
			case 'u':
				d.off++
				for i := 0; i < 4; i++ {
					if d.off >= len(d.data) || !isHex(d.data[d.off]) {
						return nil, false, d.syntaxErr("in \\u hexadecimal character escape")
					}
					d.off++
				}
			default:
				return nil, false, d.syntaxErr("in string escape code")
			}
		case c < 0x20:
			return nil, false, d.syntaxErr("in string literal")
		default:
			if c >= 0x80 {
				plain = false
			}
			d.off++
		}
	}
	return nil, false, d.syntaxErr("in string literal")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// text decodes the string at d.off into *s; null leaves *s as it was.
// A plain token is taken from the input as it stands; any other goes
// through encoding/json, so escapes, surrogates and invalid UTF-8 come
// out as they always have.
func (d *decoder) text(s *string) error {
	if d.peek() == 'n' {
		return d.null()
	}
	if d.peek() != '"' {
		return d.typeErr("a string")
	}
	tok, plain, err := d.stringToken()
	if err != nil {
		return err
	}
	b := tok[1 : len(tok)-1]
	if !plain {
		var v string
		if err := json.Unmarshal(tok, &v); err != nil {
			return err
		}
		b = []byte(v)
	}
	v, ok := d.strs[string(b)]
	if !ok {
		v = string(b)
		d.strs[v] = v
	}
	*s = v
	return nil
}

// number scans the JSON number at d.off, checking its grammar: an
// optional '-', then 0 or a digit string without a leading zero, then an
// optional fraction and exponent. It returns the literal, whether it is an
// integer (no fraction or exponent), its count of integer digits and,
// when that is at most 19, their value.
func (d *decoder) number() (lit []byte, integer bool, mag uint64, digits int, err error) {
	data, p := d.data, d.off
	if p < len(data) && data[p] == '-' {
		p++
	}
	first := p
	if p < len(data) && data[p] == '0' {
		p++
	} else {
		for ; p < len(data); p++ {
			c := data[p] - '0'
			if c > 9 {
				break
			}
			mag = mag*10 + uint64(c)
		}
	}
	bad := func(at int) ([]byte, bool, uint64, int, error) {
		d.off = at
		return nil, false, 0, 0, d.syntaxErr("in numeric literal")
	}
	digits = p - first
	if digits == 0 {
		return bad(p)
	}
	integer = true
	if p < len(data) && data[p] == '.' {
		integer = false
		q := skipDigits(data, p+1)
		if q == p+1 {
			return bad(q)
		}
		p = q
	}
	if p < len(data) && (data[p] == 'e' || data[p] == 'E') {
		integer = false
		p++
		if p < len(data) && (data[p] == '+' || data[p] == '-') {
			p++
		}
		q := skipDigits(data, p)
		if q == p {
			return bad(q)
		}
		p = q
	}
	lit = data[d.off:p]
	d.off = p
	return lit, integer, mag, digits, nil
}

// skipDigits returns the index of the first byte at or after p in data
// that is not a decimal digit.
func skipDigits(data []byte, p int) int {
	for p < len(data) && isDigit(data[p]) {
		p++
	}
	return p
}

// float decodes the number at d.off into *f; null leaves *f as it was.
// An integer of at most 15 digits converts exactly (and -0 stays −0);
// any other literal goes through strconv.ParseFloat, the call
// encoding/json makes, so out-of-range values fail as they do there.
func (d *decoder) float(f *float64) error {
	c := d.peek()
	if c == 'n' {
		return d.null()
	}
	if c != '-' && !isDigit(c) {
		return d.typeErr("a float64")
	}
	lit, integer, mag, digits, err := d.number()
	if err != nil {
		return err
	}
	if integer && digits <= 15 {
		v := float64(mag)
		if lit[0] == '-' {
			v = -v
		}
		*f = v
		return nil
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return d.errorf("number %s does not fit a float64", lit)
	}
	*f = v
	return nil
}

// integer decodes the number at d.off into *n with strconv.ParseInt's rules,
// as encoding/json does: a fraction, an exponent or an overflow fails;
// null leaves *n as it was.
func (d *decoder) integer(n *int) error {
	c := d.peek()
	if c == 'n' {
		return d.null()
	}
	if c != '-' && !isDigit(c) {
		return d.typeErr("an int")
	}
	lit, integer, mag, digits, err := d.number()
	if err != nil {
		return err
	}
	if !integer {
		return d.errorf("number %s is not an integer", lit)
	}
	var v int64
	if digits <= 18 {
		v = int64(mag)
		if lit[0] == '-' {
			v = -v
		}
	} else if v, err = strconv.ParseInt(string(lit), 10, 64); err != nil {
		return d.errorf("number %s overflows an int", lit)
	}
	if int64(int(v)) != v {
		return d.errorf("number %s overflows an int", lit)
	}
	*n = int(v)
	return nil
}

// skip consumes one value of any type, checking its syntax.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			done, err := d.next('}', first)
			if err != nil || done {
				return err
			}
			if _, err := d.key(nil); err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			done, err := d.next(']', first)
			if err != nil || done {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err := d.stringToken()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.null()
	case c == '-' || isDigit(c):
		_, _, _, _, err := d.number()
		return err
	}
	return d.syntaxErr("looking for beginning of value")
}

// dataset decodes the object at d.off into ds.
func (d *decoder) dataset(ds *Dataset) error {
	if err := d.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		done, err := d.next('}', first)
		if err != nil || done {
			return err
		}
		field, err := d.key(datasetKeys)
		if err != nil {
			return err
		}
		switch field {
		case 0:
			err = decodeSlice(d, &ds.CounterNames, "a []string", d.text)
		case 1:
			err = d.integer(&ds.Levels)
		case 2:
			err = decodeSlice(d, &ds.Samples, "a []Sample", d.sample)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// decodeSlice decodes the array at d.off into *s as encoding/json
// decodes into a slice: null sets it to nil; an array reuses what the
// slice already holds — element i decodes into s[i] with elem, growing s
// (and re-exposing what a shorter, repeated key truncated) as needed —
// and truncates s to the elements read; an empty array leaves a non-nil
// empty slice. want names the slice's type for a type error.
func decodeSlice[T any](d *decoder, s *[]T, want string, elem func(*T) error) error {
	if d.peek() == 'n' {
		*s = nil
		return d.null()
	}
	if d.peek() != '[' {
		return d.typeErr(want)
	}
	if err := d.open(); err != nil {
		return err
	}
	v := *s
	i := 0
	for first := true; ; first = false {
		done, err := d.next(']', first)
		if err != nil {
			return err
		}
		if done {
			break
		}
		if i == cap(v) {
			var zero T
			v = append(v, zero)
		} else if i >= len(v) {
			v = v[:i+1]
		}
		if err := elem(&v[i]); err != nil {
			return err
		}
		i++
	}
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
	return nil
}

// features decodes the array at d.off into *f. A slice with no capacity,
// which every fresh sample has, is carved from the shared chunk with
// len == cap, so an append to one sample's features never writes into
// another's; a slice with capacity (a repeated key) decodes in place.
func (d *decoder) features(f *[]float64) error {
	if cap(*f) > 0 || d.peek() != '[' {
		return decodeSlice(d, f, "a []float64", d.float)
	}
	if err := d.open(); err != nil {
		return err
	}
	row := d.chunk[:0]
	for first := true; ; first = false {
		done, err := d.next(']', first)
		if err != nil {
			return err
		}
		if done {
			break
		}
		if len(row) == cap(row) {
			grown := make([]float64, len(row), max(chunkFloats, 2*len(row)))
			copy(grown, row)
			row = grown
		}
		row = row[:len(row)+1]
		if err := d.float(&row[len(row)-1]); err != nil {
			return err
		}
	}
	if len(row) == 0 {
		*f = []float64{}
		return nil
	}
	*f = row[:len(row):len(row)]
	d.chunk = row[len(row):]
	return nil
}

// sample decodes the object at d.off into s; null leaves s as it was.
func (d *decoder) sample(s *Sample) error {
	if d.peek() == 'n' {
		return d.null()
	}
	if d.peek() != '{' {
		return d.typeErr("a Sample")
	}
	if err := d.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		done, err := d.next('}', first)
		if err != nil || done {
			return err
		}
		field, err := d.key(sampleKeys)
		if err != nil {
			return err
		}
		switch field {
		case 0:
			err = d.text(&s.Kernel)
		case 1:
			err = d.integer(&s.Breakpoint)
		case 2:
			err = d.integer(&s.Cluster)
		case 3:
			err = d.integer(&s.Level)
		case 4:
			err = d.features(&s.Features)
		case 5:
			err = d.float(&s.PerfLoss)
		case 6:
			err = d.float(&s.ScalingInstr)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}
