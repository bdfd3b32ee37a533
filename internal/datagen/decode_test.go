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

// decodeSeeds are FuzzDatasetDecode's seed inputs. Most are slices of
// the committed corpus, so they carry the program's counter names and
// reach the fuzz target's second property.
func decodeSeeds(tb testing.TB) [][]byte {
	raw, err := os.ReadFile(committedCorpora[0])
	if err != nil {
		tb.Fatal(err)
	}
	var full Dataset
	if err := json.Unmarshal(raw, &full); err != nil {
		tb.Fatal(err)
	}
	save := func(d *Dataset) string {
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.String()
	}
	names, err := json.Marshal(full.CounterNames)
	if err != nil {
		tb.Fatal(err)
	}
	// corpus is a corpus with the program's counters around levels and
	// samples as written.
	corpus := func(levels, samples string) string {
		return `{"counter_names":` + string(names) + `,"levels":` + levels + `,"samples":` + samples + "}\n"
	}
	// row is a sample with its features written out as feats, 47 values.
	row := func(feats string) string {
		return `{"kernel":"k","breakpoint":1,"cluster":0,"level":2,"features":[` + feats + `],"perf_loss":0.25,"scaling_instr":100}`
	}
	zeros := strings.Repeat("0,", len(full.CounterNames)-1) // all but the last feature
	slice := save(&Dataset{CounterNames: full.CounterNames, Levels: full.Levels, Samples: full.Samples[:3]})
	one := save(&Dataset{CounterNames: full.CounterNames, Levels: full.Levels, Samples: full.Samples[:1]})
	escaped := full.Samples[0]
	escaped.Kernel = `a<b>&"q" é`
	edges := full.Samples[1]
	edges.Features = append([]float64(nil), edges.Features...)
	for i, v := range []float64{math.Copysign(0, -1), 1e-300, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1e21, 1e-7, 123456789012345, 1234567890123456} {
		edges.Features[i] = v
	}
	edges.PerfLoss, edges.ScalingInstr = math.Copysign(0, -1), 1e20
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(one), "", "\t"); err != nil {
		tb.Fatal(err)
	}
	const small = `{"counter_names":["a","b"],"levels":3,"samples":[{"kernel":"k","breakpoint":1,"cluster":0,"level":2,"features":[1.5,-2],"perf_loss":0.25,"scaling_instr":100}]}`
	seeds := []string{
		// Save's own form: corpus slices, no samples, an empty list, a
		// kernel name that needs escapes and edge-case floats.
		slice,
		one,
		corpus("6", "null"),
		corpus("6", "[]"),
		corpus("-3", "[]"),
		save(&Dataset{CounterNames: full.CounterNames, Levels: 6, Samples: []Sample{escaped}}),
		save(&Dataset{CounterNames: full.CounterNames, Levels: 6, Samples: []Sample{edges}}),
		small,
		small + " \t\r\n",
		`{"counter_names":[],"levels":0,"samples":[{"kernel":"","breakpoint":0,"cluster":0,"level":0,"features":[],"perf_loss":0,"scaling_instr":0}]}`,
		// Hand-written rows: numbers at the edges of the grammar, of the
		// integer fast path and of the float range; escapes, surrogates
		// and invalid UTF-8.
		corpus("6", "["+row(zeros+"-0")+"]"),
		corpus("6", "["+row(zeros+"-0.0")+"]"),
		corpus("6", "["+row(zeros+"1e-300")+"]"),
		corpus("6", "["+row(zeros+"1.7976931348623157e308")+"]"),
		corpus("6", "["+row(zeros+"4.9e-324")+"]"),
		corpus("6", "["+row(zeros+"1E2")+"]"),
		corpus("6", "["+row(zeros+"0.1e+2")+"]"),
		corpus("6", "["+row(zeros+"98765432109876543210")+"]"),
		corpus("6", "["+row(zeros+"83030920993190389")+"]"), // digit by digit, 17 digits round twice
		corpus("6", "["+row(zeros+"-999999999999999")+"]"),
		corpus("6", `[{"kernel":"ké\/\n","breakpoint":9223372036854775807,"cluster":-9223372036854775808,"level":0,"features":[`+zeros+`1],"perf_loss":1,"scaling_instr":1}]`),
		"{\"counter_names\":[\"\xff\xfe\"],\"levels\":1,\"samples\":[{\"kernel\":\"\xe2\x82\",\"breakpoint\":0,\"cluster\":0,\"level\":0,\"features\":[1],\"perf_loss\":0,\"scaling_instr\":0}]}",
		`{"counter_names":["\ud800","\"q\""],"levels":1,"samples":null}`,
		// Forms encoding/json reads and the corpus decoder refuses: Save
		// of what encoding/json decodes must still load.
		indented.String(),
		" " + one,
		strings.Replace(one, `"levels":`, `"Levels":`, 1),
		strings.Replace(one, `"breakpoint":1,"cluster":0,`, `"cluster":0,"breakpoint":1,`, 1),
		strings.Replace(one, `"level":0,`, `"level":0,"level":1,`, 1),
		strings.Replace(one, `"kernel":`, `"note":[{"x":null}],"kernel":`, 1),
		strings.Replace(one, `"perf_loss":`, `"perf_loss":null,"perf_loss":`, 1),
		strings.Replace(one, `"scaling_instr":13660`, `"scaling_instr":null`, 1),
		strings.Replace(one, `"samples":`, `"samples":null,"samples":`, 1),
		strings.Replace(corpus("6", "[]"), "]}", `],"extra":1}`, 1),
		strings.TrimSuffix(one, "\n") + `garbage`,
		strings.TrimSuffix(one, "\n") + ` {"levels":9}`,
		`{"counter_names":` + string(names) + `}`,
		`null`,
		// Numbers the JSON grammar or a field's type refuses.
		corpus("6", "["+row(zeros+"1e400")+"]"),
		corpus("6", "["+row(zeros+"01")+"]"),
		corpus("6", "["+row(zeros+"+1")+"]"),
		corpus("6", "["+row(zeros+".5")+"]"),
		corpus("6", "["+row(zeros+"1.")+"]"),
		corpus("6", "["+row(zeros+"1e")+"]"),
		corpus("6", "["+row(zeros+"-")+"]"),
		corpus("6", "["+row(zeros+"0x10")+"]"),
		corpus("6", "["+row(zeros+"NaN")+"]"),
		corpus("6", "["+row(zeros+"true")+"]"),
		strings.Replace(one, `"level":0,`, `"level":1.0,`, 1),
		strings.Replace(one, `"level":0,`, `"level":1e2,`, 1),
		strings.Replace(one, `"level":0,`, `"level":9223372036854775808,`, 1),
		strings.Replace(one, `"kernel":"parboil.cutcp"`, `"kernel":5`, 1),
		// Broken syntax.
		strings.Replace(one, `"kernel":"parboil.cutcp"`, "\"kernel\":\"a\x01\"", 1),
		strings.Replace(one, `"kernel":"parboil.cutcp"`, `"kernel":"\x"`, 1),
		strings.Replace(one, `"kernel":"parboil.cutcp"`, `"kernel":"\u12zz"`, 1),
		strings.Replace(one, `,"levels"`, `,,"levels"`, 1),
		strings.Replace(one, `],"perf_loss"`, `,],"perf_loss"`, 1),
		strings.Replace(one, `}]}`, `},]}`, 1),
		// Truncated: at the end, in a key, in a string, in a number and
		// before a list's first element.
		one[:len(one)-2],
		one[:5],
		one[:len(`{"counter_names":["ip`)],
		one[:len(`{"counter_names":`)+len(names)+len(`,"levels":`)],
		one[:len(`{"counter_names":`)+len(names)+len(`,"levels":6,"samples":[`)],
		``,
		`[]`,
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// FuzzDatasetDecode holds the corpus decoder to encoding/json both ways.
// Whatever the decoder accepts, encoding/json decodes to the same dataset
// bit for bit. Whatever encoding/json decodes to a dataset validate
// accepts, Save writes in a form Load reads back to that dataset.
func FuzzDatasetDecode(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, refErr := decodeRef(b)
		if got, err := decodeOwn(b); err == nil {
			if refErr != nil {
				t.Fatalf("decoder accepted an input encoding/json refuses: %v", refErr)
			}
			if diff := datasetDiff(got, want); diff != "" {
				t.Fatal(diff)
			}
		}
		if refErr != nil || want.validate() != nil {
			return
		}
		var buf bytes.Buffer
		if err := want.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load refused what Save wrote: %v", err)
		}
		if diff := datasetDiff(back, want); diff != "" {
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
