package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/epochtrace"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// writeFixtureMetrics builds a registry the way a served run would and
// dumps it to disk.
func writeFixtureMetrics(t testing.TB, path string) {
	t.Helper()
	reg := telemetry.NewRegistry()
	reg.Counter("serve_decisions_total").Add(42)
	reg.Gauge("serve_model_generation").Add(3)
	h := reg.HistogramBuckets("serve_batch_latency_us", 20)
	for _, v := range []int64{3, 5, 9, 17, 33} {
		h.Observe(v)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := reg.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeMetricsDump(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "telemetry.json")
	writeFixtureMetrics(t, path)

	var out bytes.Buffer
	if err := run(&out, path, "", "", "", "", "", "", "", ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"== distributions ==",
		"serve_batch_latency_us",
		"== counters ==",
		"serve_decisions_total",
		"== gauges ==",
		"serve_model_generation",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestSummarizeSpansAndChromeExport(t *testing.T) {
	dir := t.TempDir()
	spansPath := filepath.Join(dir, "spans.jsonl")
	chromePath := filepath.Join(dir, "chrome.json")

	f, err := os.Create(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(f)
	tr.Start("datagen").End()
	tr.Start("train", "epochs", "50").End()
	tr.Start("train").End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	if err := run(&out, "", spansPath, chromePath, "", "", "", "", "", ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "datagen") || !strings.Contains(got, "train") {
		t.Fatalf("span table incomplete:\n%s", got)
	}
	cf, err := os.Open(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(cf).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	var spans int
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans != 3 {
		t.Fatalf("chrome export has %d spans, want 3", spans)
	}
}

func TestTraceDivergence(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, levels []int) string {
		tr := &epochtrace.Trace{}
		for e, lvl := range levels {
			row := make([]float64, counters.Num)
			row[counters.IdxLevel] = float64(lvl)
			tr.Records = append(tr.Records, epochtrace.Record{Epoch: e, Cluster: 0, Counters: row})
		}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := tr.WriteCSV(f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// 3 of 5 epochs agree; the two divergent epochs are off by -2 and +1.
	run1 := mk("run.csv", []int{5, 3, 4, 5, 2})
	oracle := mk("oracle.csv", []int{5, 5, 4, 4, 2})

	var out bytes.Buffer
	if err := run(&out, "", "", "", run1, oracle, "", "", "", ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"60.0%", "40.0%", "1.50", "Δlevel"} {
		if !strings.Contains(got, want) {
			t.Fatalf("divergence output missing %q:\n%s", want, got)
		}
	}
}

func TestTraceRequiresReference(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "", "", "", "whatever.csv", "", "", "", "", ""); err == nil {
		t.Fatal("-trace without -against must fail")
	}
}

// writeFixtureDecisions dumps a small flight-recorder capture: eight
// model decisions with drifted features, one fallback, one rejected row.
func writeFixtureDecisions(t *testing.T, path string) {
	t.Helper()
	hdr := provenance.Header{
		Build:       map[string]string{"go": "go1.x", "revision": "abc"},
		Features:    []string{"ipc", "mem_hits"},
		TrainMean:   []float64{1.0, 100.0},
		TrainStd:    []float64{0.5, 10.0},
		Levels:      6,
		ModelParams: 1234,
		Capacity:    16,
		Head:        12,
	}
	var recs []provenance.Record
	for i := 0; i < 8; i++ {
		r := provenance.Record{
			Seq: uint64(i + 1), Cluster: 0, Epoch: int32(i),
			Level: int32(2 + i%2), Reason: provenance.ReasonModel,
			Preset: 0.1, EffPreset: 0.1, PredInstr: 1000,
			LatencyNs: int64(1500 + 100*i),
		}
		// Window mean 2.35 vs training mean 1.0 at σ=0.5 → z = 2.7.
		r.SetDerived([]float64{2.0 + 0.1*float64(i), 100})
		if i > 0 {
			r.PredErr = 0.10
			r.HasPredErr = true
		}
		recs = append(recs, r)
	}
	recs = append(recs,
		provenance.Record{Seq: 9, Cluster: 1, Epoch: 8, Level: 1,
			Reason: provenance.ReasonFallback, LatencyNs: 900},
		provenance.Record{Seq: 10, Cluster: -1, Epoch: -1, Level: 0,
			Reason: provenance.ReasonRejected, LatencyNs: 400},
	)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := provenance.WriteRecords(f, hdr, recs); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeDecisionsDump(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "decisions.jsonl")
	writeFixtureDecisions(t, path)

	var out bytes.Buffer
	if err := run(&out, "", "", "", "", "", path, "", "", ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"decision provenance",
		"go=go1.x revision=abc",
		"6 levels, 1234 params",
		"10 of 12 ever recorded (ring capacity 16)",
		"model", "fallback", "rejected",
		"degraded                2    20.0%", // 2 of 10 non-model
		"MAPE 0.100",
		"bias +0.100",
		"feature drift vs training (8 model decisions)",
		"ipc",
		"2.70", // mean_z of the drifted ipc window
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("decisions output missing %q:\n%s", want, got)
		}
	}

	// The view must be byte-deterministic over the same dump.
	var again bytes.Buffer
	if err := run(&again, "", "", "", "", "", path, "", "", ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Fatal("decisions view is not byte-deterministic")
	}
}

// TestMultiFileSpanMerge merges per-process span captures into one
// Chrome trace with a distinct pid per input file, and prints the
// per-hop quantile table for trace-linked spans.
func TestMultiFileSpanMerge(t *testing.T) {
	dir := t.TempDir()
	clientPath := filepath.Join(dir, "client.jsonl")
	replicaPath := filepath.Join(dir, "replica.jsonl")
	chromePath := filepath.Join(dir, "merged.json")

	tc := telemetry.TraceContext{TraceID: 0xbeef, Flags: telemetry.FlagSampled}
	for i, path := range []string{clientPath, replicaPath} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		tr := telemetry.NewTracer(f)
		tr.StartSpan(tc, []string{"client.send", "engine.batch"}[i]).End()
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	var out bytes.Buffer
	if err := run(&out, "", clientPath+","+replicaPath, chromePath, "", "", "", "", "", ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"per-hop latency", "client.send", "engine.batch", "2 processes"} {
		if !strings.Contains(got, want) {
			t.Fatalf("merge output missing %q:\n%s", want, got)
		}
	}
	raw, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"pid": 1`, `"pid": 2`, `"process_name"`, `"000000000000beef"`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("chrome trace missing %q", want)
		}
	}
}

func TestPromlintFlag(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.prom")
	bad := filepath.Join(dir, "bad.prom")

	reg := telemetry.NewRegistry()
	reg.Counter("serve_decisions_total").Add(5)
	reg.Histogram("serve_batch_latency_us").ObserveExemplar(7, 0xabc)
	f, err := os.Create(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteProm(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if err := run(&out, "", "", "", "", "", "", good, "", ""); err != nil {
		t.Fatalf("clean exposition flagged: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "clean") {
		t.Fatalf("missing clean verdict:\n%s", out.String())
	}

	if err := os.WriteFile(bad, []byte("a_total 1\na_total 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(&out, "", "", "", "", "", "", bad, "", ""); err == nil {
		t.Fatalf("duplicate series not flagged:\n%s", out.String())
	}
}

// writeFixtureLedgerDump dumps a flight-recorder capture carrying the raw
// counter rows the ledger replay consumes, and returns the records.
func writeFixtureLedgerDump(t *testing.T, path string) []provenance.Record {
	t.Helper()
	var recs []provenance.Record
	for i := 0; i < 24; i++ {
		feats := make([]float64, counters.Num)
		for j := range feats {
			feats[j] = float64((i+j)%9) * 0.3
		}
		r := provenance.Record{
			Seq: uint64(i + 1), Cluster: int32(i % 2), Epoch: int32(i),
			Level: int32(i % 4), Reason: provenance.ReasonModel,
			Preset: 0.1, ModelGen: 1,
		}
		r.SetRaw(feats)
		recs = append(recs, r)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := provenance.WriteRecords(f, provenance.Header{Levels: 6}, recs); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestLedgerReplayView(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dump.jsonl")
	writeFixtureLedgerDump(t, path)

	var out bytes.Buffer
	if err := run(&out, "", "", "", "", "", "", "", path, ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"efficiency ledger replay",
		"decisions                   24",
		"energy @MaxFreq",
		"energy saved",
		"perf loss mean",
		"level", "cluster",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("ledger replay output missing %q:\n%s", want, got)
		}
	}

	var again bytes.Buffer
	if err := run(&again, "", "", "", "", "", "", "", path, ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Fatal("ledger replay view is not byte-deterministic")
	}
}

// TestLedgerCrossCheck pins the acceptance contract: an online snapshot
// that matches the exact replay passes within the documented 2%
// tolerance, and a disagreeing one fails with a non-zero exit.
func TestLedgerCrossCheck(t *testing.T) {
	dir := t.TempDir()
	dumpPath := filepath.Join(dir, "dump.jsonl")
	recs := writeFixtureLedgerDump(t, dumpPath)
	replay := ledger.ReplayRecords(recs)

	writeSnap := func(name string, s ledger.Snapshot) string {
		t.Helper()
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := s.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		return p
	}

	good := writeSnap("online.json", replay)
	var out bytes.Buffer
	if err := run(&out, "", "", "", "", "", "", "", dumpPath, good); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cross-check PASS") {
		t.Fatalf("matching snapshot did not pass:\n%s", out.String())
	}

	doctored := replay
	doctored.EnergyPJ = replay.EnergyPJ / 2 // far beyond the 2% tolerance
	bad := writeSnap("doctored.json", doctored)
	out.Reset()
	err := run(&out, "", "", "", "", "", "", "", dumpPath, bad)
	if err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("doctored snapshot passed cross-check: %v", err)
	}
}

// TestLedgerCrossCheckRefusesEmptyReplay: a dump that prices no decision
// agrees with an empty online snapshot on every field, so the
// cross-check must refuse it rather than pass having checked nothing.
func TestLedgerCrossCheckRefusesEmptyReplay(t *testing.T) {
	dir := t.TempDir()
	dumpPath := filepath.Join(dir, "empty.jsonl")
	f, err := os.Create(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := provenance.WriteRecords(f, provenance.Header{Levels: 6}, nil); err != nil {
		t.Fatal(err)
	}
	f.Close()
	snapPath := filepath.Join(dir, "online.json")
	if f, err = os.Create(snapPath); err != nil {
		t.Fatal(err)
	}
	if err := ledger.ReplayRecords(nil).WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	err = run(&out, "", "", "", "", "", "", "", dumpPath, snapPath)
	if err == nil || !strings.Contains(err.Error(), "no decisions") {
		t.Fatalf("0-decision replay cross-check = %v, want a refusal:\n%s", err, out.String())
	}
}

func TestLedgerAgainstRequiresLedger(t *testing.T) {
	if err := run(&bytes.Buffer{}, "", "", "", "", "", "", "", "", "x.json"); err == nil {
		t.Fatal("-ledger-against without -ledger accepted")
	}
}
