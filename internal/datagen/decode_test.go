package datagen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The committed corpora: the bench and CI cache, and the full-scale run.
var committedCorpora = []string{
	filepath.Join("..", "..", "testdata", "bench-cache", "dataset.json"),
	filepath.Join("..", "..", "artifacts", "full", "dataset.json"),
}

// decodeRef is the decode Load made before it had a decoder of its own,
// the reference the corpus decoder must match on every input.
func decodeRef(b []byte) (*Dataset, error) {
	var d Dataset
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&d)
	return &d, err
}

// decodeOwn is Load's decode, before validate.
func decodeOwn(b []byte) (*Dataset, error) {
	data, err := readInput(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	var d Dataset
	err = decodeDataset(data, &d)
	return &d, err
}

// datasetDiff describes the first difference between two datasets, bit
// for bit, telling a nil slice from an empty one; "" means none.
func datasetDiff(got, want *Dataset) string {
	if (got.CounterNames == nil) != (want.CounterNames == nil) || len(got.CounterNames) != len(want.CounterNames) {
		return fmt.Sprintf("counter_names %#v, want %#v", got.CounterNames, want.CounterNames)
	}
	for i := range want.CounterNames {
		if got.CounterNames[i] != want.CounterNames[i] {
			return fmt.Sprintf("counter_names[%d] %q, want %q", i, got.CounterNames[i], want.CounterNames[i])
		}
	}
	if got.Levels != want.Levels {
		return fmt.Sprintf("levels %d, want %d", got.Levels, want.Levels)
	}
	if (got.Samples == nil) != (want.Samples == nil) || len(got.Samples) != len(want.Samples) {
		return fmt.Sprintf("samples: %d (nil %t), want %d (nil %t)",
			len(got.Samples), got.Samples == nil, len(want.Samples), want.Samples == nil)
	}
	for i := range want.Samples {
		g, w := &got.Samples[i], &want.Samples[i]
		if g.Kernel != w.Kernel || g.Breakpoint != w.Breakpoint || g.Cluster != w.Cluster || g.Level != w.Level ||
			math.Float64bits(g.PerfLoss) != math.Float64bits(w.PerfLoss) ||
			math.Float64bits(g.ScalingInstr) != math.Float64bits(w.ScalingInstr) {
			return fmt.Sprintf("sample %d: %+v, want %+v", i, *g, *w)
		}
		if (g.Features == nil) != (w.Features == nil) || len(g.Features) != len(w.Features) {
			return fmt.Sprintf("sample %d features %#v, want %#v", i, g.Features, w.Features)
		}
		for j := range w.Features {
			if math.Float64bits(g.Features[j]) != math.Float64bits(w.Features[j]) {
				return fmt.Sprintf("sample %d feature %d: %v (%#x), want %v (%#x)", i, j,
					g.Features[j], math.Float64bits(g.Features[j]), w.Features[j], math.Float64bits(w.Features[j]))
			}
		}
	}
	return ""
}

// TestLoadCommittedCorpora loads both committed corpora with Load and with
// encoding/json and requires them bit-identical, with every feature vector
// its own (len == cap); Save of the result must then reproduce each file
// byte for byte.
func TestLoadCommittedCorpora(t *testing.T) {
	for _, path := range committedCorpora {
		t.Run(filepath.Base(filepath.Dir(path)), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := decodeRef(raw)
			if err != nil {
				t.Fatal(err)
			}
			if diff := datasetDiff(got, want); diff != "" {
				t.Fatal(diff)
			}
			for i, s := range got.Samples {
				if len(s.Features) != cap(s.Features) {
					t.Fatalf("sample %d features len %d cap %d: an append would write into the next sample", i, len(s.Features), cap(s.Features))
				}
			}
			var buf bytes.Buffer
			if err := got.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), raw) {
				t.Fatalf("Save of the loaded corpus differs from %s (%d bytes, want %d)", path, buf.Len(), len(raw))
			}
		})
	}
}

// decodeSeeds are FuzzDatasetDecode's seed inputs.
func decodeSeeds(tb testing.TB) [][]byte {
	raw, err := os.ReadFile(committedCorpora[0])
	if err != nil {
		tb.Fatal(err)
	}
	var full Dataset
	if err := json.Unmarshal(raw, &full); err != nil {
		tb.Fatal(err)
	}
	full.Samples = full.Samples[:3]
	slice, err := json.Marshal(&full)
	if err != nil {
		tb.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, slice, "", "\t"); err != nil {
		tb.Fatal(err)
	}
	const base = `{"counter_names":["a","b"],"levels":3,"samples":[{"kernel":"k","breakpoint":1,"cluster":0,"level":2,"features":[1.5,-2],"perf_loss":0.25,"scaling_instr":100}]}`
	seeds := []string{
		string(slice),
		indented.String(),
		base,
		// Keys reordered, upper-cased and repeated.
		`{"samples":[{"scaling_instr":7,"features":[3],"Level":1,"KERNEL":"x"}],"Levels":2,"COUNTER_NAMES":["a"]}`,
		`{"counter_names":["a","b","c"],"counter_names":["d"],"counter_names":[null,null,null],"levels":2,"levels":null}`,
		`{"samples":[{"features":[1,2,3]},{"level":1}],"samples":[{"features":[4]}],"samples":[{"features":[null,null,null,null]}]}`,
		`{"samples":[{"features":[1,2],"features":[],"features":[null]}]}`,
		`{"ſamples":[{"Kernel":"k","kernel":"K","perf_LOSS":1}],"levelſ":3}`,
		// Unknown keys holding nested values.
		`{"meta":{"a":[1,{"b":[true,false,null,"sé"]}],"c":-1.5e-3},"levels":1,"samples":[{"extra":[[[]]],"level":0,"x":{}}]}`,
		// null in every position.
		`null`,
		`null trailing`,
		`{"counter_names":null,"levels":null,"samples":null}`,
		`{"counter_names":[null],"samples":[null,{"kernel":null,"breakpoint":null,"cluster":null,"level":null,"features":null,"perf_loss":null,"scaling_instr":null}]}`,
		`{"samples":[{"features":[null,1,null]}]}`,
		`{"counter_names":["a"],"counter_names":null,"samples":[{"features":[1],"features":null}],"samples":[{}]}`,
		`{"samples":[{"level":1}],"samples":null}`,
		// Escaped and non-ASCII strings.
		`{"counter_names":["a\n","é","\ud800","\"q\"","\/"],"samples":[{"kernel":"ker\tnel"},{"kernel":"ké"}]}`,
		"{\"counter_names\":[\"\xff\xfe\"],\"samples\":[{\"kernel\":\"\xe2\x82\"}]}",
		"{\"counter_names\":[\"a\x01\"]}",
		`{"counter_names":["\x"]}`,
		`{"levels":4}`,
		// Numbers at the edges of the grammar and of each field's type.
		`{"samples":[{"perf_loss":-0,"scaling_instr":-0.0,"features":[-0,0,-0.0]}]}`,
		`{"samples":[{"features":[1e400]}]}`,
		`{"samples":[{"features":[123456789012345,1234567890123456,98765432109876543210,-999999999999999]}]}`,
		`{"samples":[{"features":[1e-400,4.9e-324,1.7976931348623157e308,0.1E+2]}]}`,
		`{"samples":[{"features":[01]}]}`,
		`{"samples":[{"features":[+1]}]}`,
		`{"samples":[{"features":[.5]}]}`,
		`{"samples":[{"features":[1.]}]}`,
		`{"samples":[{"features":[0x10]}]}`,
		`{"samples":[{"features":[NaN,Infinity]}]}`,
		`{"samples":[{"level":1.0}]}`,
		`{"samples":[{"level":1e2}]}`,
		`{"samples":[{"level":-0,"cluster":9223372036854775807,"breakpoint":-9223372036854775808}]}`,
		`{"samples":[{"level":9223372036854775808}]}`,
		// Wrong types, and broken syntax.
		`{"levels":"3"}`,
		`{"samples":{}}`,
		`{"samples":[{"features":[true]}]}`,
		`{"samples":[{"kernel":5}]}`,
		`{"levels":3,}`,
		`{"samples":[1,]}`,
		`{"levels" 3}`,
		`{"x":1e}`,
		`{"x":-}`,
		`{"x":"\q"}`,
		`{"x":"\u12zz"}`,
		`{"x":[tru]}`,
		`{"x":{"a" 1}}`,
		`{"levels":3`,
		`[]`,
		`"dataset"`,
		`7`,
		// Trailing bytes after the object, and empty input.
		base + ` {"levels":9}`,
		base + `garbage`,
		"  \n\t" + base,
		``,
		"  \n",
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// FuzzDatasetDecode decodes each input with the corpus decoder and with
// encoding/json: both must fail, or both succeed with datasets equal bit
// for bit.
func FuzzDatasetDecode(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := decodeOwn(b)
		want, refErr := decodeRef(b)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder error %v, encoding/json error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if diff := datasetDiff(got, want); diff != "" {
			t.Fatal(diff)
		}
	})
}

// BenchmarkLoad loads the bench-cache corpus (1.2 MB, 2 592 samples).
func BenchmarkLoad(b *testing.B) {
	raw, err := os.ReadFile(committedCorpora[0])
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
