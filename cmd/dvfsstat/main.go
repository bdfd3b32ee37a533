// Command dvfsstat turns telemetry dumps back into human-readable
// analysis: build attribution, latency quantiles, counters and gauges
// from a metrics snapshot; phase tables and Chrome trace-event export
// from a span capture; and per-epoch decision divergence between two
// dvfstrace CSV files (a controller against an oracle, say).
//
// Usage:
//
//	dvfsstat -metrics telemetry.json          # registry dump (ssmdvfs -telemetry,
//	                                          # dvfstrace -telemetry, or /telemetry
//	                                          # scraped from ssmdvfsd or dvfsfleet)
//	dvfsstat -spans spans.jsonl [-chrome out.json]
//	dvfsstat -spans client.jsonl,fleet.jsonl,replica.jsonl -chrome out.json
//	dvfsstat -trace run.csv -against oracle.csv
//	dvfsstat -decisions dump.jsonl            # flight-recorder dump (ssmdvfsd
//	                                          # /debug/decisions, dvfstrace -flightrec)
//	dvfsstat -promlint metrics.prom           # lint a /metrics.prom scrape
//	dvfsstat -ledger dump.jsonl               # offline efficiency-ledger replay
//	dvfsstat -ledger dump.jsonl -ledger-against snapshot.json
//
// Any combination of inputs may be given; each produces its section.
// -chrome converts the span capture to the Chrome trace-event format
// viewable in chrome://tracing or Perfetto; comma-separated -spans files
// (one per process of a traced fleet) merge into a single timeline with
// one Chrome process per file, and trace-linked captures add a per-hop
// latency quantile table. -decisions summarizes a provenance
// flight-recorder dump: the per-reason breakdown, the level
// distribution, prediction-error statistics, and per-feature drift
// against the training statistics embedded in the dump header.
// -promlint checks a Prometheus text exposition for malformed names,
// label escaping, exemplar syntax, and duplicate series, exiting 1 if
// anything is wrong. -ledger replays a flight-recorder dump through the
// exact per-decision efficiency accounting (the same arithmetic the
// online ledger uses) and prints energy-saved/perf-loss totals with
// per-level and per-cluster breakdowns; -ledger-against additionally
// cross-checks an online /debug/ledger snapshot against that replay,
// exiting 1 if any total diverges beyond the documented 2% tolerance.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"ssmdvfs/internal/atomicfile"
	"ssmdvfs/internal/buildinfo"
	"ssmdvfs/internal/epochtrace"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

func main() {
	var (
		metrics   = flag.String("metrics", "", "telemetry registry snapshot (JSON; a -telemetry dump, or /telemetry from a daemon or router)")
		spans     = flag.String("spans", "", "span captures (JSONL; comma-separated files merge, one Chrome process each)")
		chrome    = flag.String("chrome", "", "with -spans: write Chrome trace-event JSON here")
		trace     = flag.String("trace", "", "per-epoch trace (CSV from dvfstrace -o)")
		against   = flag.String("against", "", "with -trace: reference trace to diff decisions against")
		decisions = flag.String("decisions", "", "flight-recorder dump (JSONL from /debug/decisions or -flightrec)")
		promlint  = flag.String("promlint", "", "lint a Prometheus text exposition (from /metrics.prom); exits 1 on problems")
		ledgerIn  = flag.String("ledger", "", "replay a flight-recorder dump through the exact efficiency-ledger accounting")
		ledgerRef = flag.String("ledger-against", "", "with -ledger: online ledger snapshot (from /debug/ledger) to cross-check; exits 1 beyond the 2% tolerance")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("dvfsstat", buildinfo.String())
		return
	}

	if *metrics == "" && *spans == "" && *trace == "" && *decisions == "" && *promlint == "" && *ledgerIn == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *metrics, *spans, *chrome, *trace, *against, *decisions, *promlint, *ledgerIn, *ledgerRef); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsstat:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, metricsPath, spansPath, chromePath, tracePath, againstPath, decisionsPath, promlintPath, ledgerPath, ledgerRefPath string) error {
	if metricsPath != "" {
		snap, err := telemetry.ReadSnapshotFile(metricsPath)
		if err != nil {
			return err
		}
		summarizeMetrics(w, snap)
	}
	if spansPath != "" {
		// Comma-separated captures (one per process: client, router,
		// replicas) merge into one timeline; each file becomes its own
		// Chrome process so cross-process spans line up side by side.
		var names []string
		var groups [][]telemetry.SpanRecord
		var merged []telemetry.SpanRecord
		for _, path := range strings.Split(spansPath, ",") {
			if path = strings.TrimSpace(path); path == "" {
				continue
			}
			spans, err := telemetry.ReadSpansFile(path)
			if err != nil {
				return err
			}
			names = append(names, path)
			groups = append(groups, spans)
			merged = append(merged, spans...)
		}
		summarizeSpans(w, merged)
		if chromePath != "" {
			if err := atomicfile.Write(chromePath, func(out io.Writer) error {
				return telemetry.WriteChromeTraceMulti(out, groups, names)
			}); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote Chrome trace (%d events, %d processes) to %s\n",
				len(merged), len(groups), chromePath)
		}
	}
	if tracePath != "" {
		if againstPath == "" {
			return fmt.Errorf("-trace requires -against (the reference run to diff)")
		}
		a, err := epochtrace.ReadFile(tracePath)
		if err != nil {
			return err
		}
		b, err := epochtrace.ReadFile(againstPath)
		if err != nil {
			return err
		}
		if err := summarizeDivergence(w, tracePath, againstPath, a, b); err != nil {
			return err
		}
	}
	if decisionsPath != "" {
		hdr, recs, err := provenance.ReadFile(decisionsPath)
		if err != nil {
			return err
		}
		summarizeDecisions(w, decisionsPath, hdr, recs)
	}
	if promlintPath != "" {
		f, err := os.Open(promlintPath)
		if err != nil {
			return err
		}
		problems := telemetry.LintProm(f)
		f.Close()
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintf(w, "promlint: %s: %s\n", promlintPath, p)
			}
			return fmt.Errorf("%s: %d exposition problems", promlintPath, len(problems))
		}
		fmt.Fprintf(w, "promlint: %s: clean\n", promlintPath)
	}
	if ledgerPath != "" {
		_, recs, err := provenance.ReadFile(ledgerPath)
		if err != nil {
			return err
		}
		replay := ledger.ReplayRecords(recs)
		summarizeLedger(w, ledgerPath, replay)
		if ledgerRefPath != "" {
			online, err := ledger.ReadSnapshotFile(ledgerRefPath)
			if err != nil {
				return err
			}
			if err := crossCheckLedger(w, ledgerRefPath, online, replay); err != nil {
				return err
			}
		}
	} else if ledgerRefPath != "" {
		return fmt.Errorf("-ledger-against requires -ledger (the dump to replay)")
	}
	return nil
}

// summarizeLedger renders a replayed flight-recorder dump as the offline
// efficiency ledger: totals plus the per-level and per-cluster breakdown.
// Ordering is fixed (numeric label order) so two runs over the same dump
// are byte-identical.
func summarizeLedger(w io.Writer, path string, s ledger.Snapshot) {
	fmt.Fprintf(w, "== efficiency ledger replay: %s ==\n", path)
	fmt.Fprintf(w, "decisions         %12d\n", s.Decisions)
	fmt.Fprintf(w, "energy @MaxFreq   %12s\n", ledger.FormatEnergyPJ(float64(s.EnergyMaxPJ)))
	fmt.Fprintf(w, "energy actual     %12s\n", ledger.FormatEnergyPJ(float64(s.EnergyPJ)))
	fmt.Fprintf(w, "energy saved      %12s  (%.1f%% of the MaxFreq bill)\n",
		ledger.FormatEnergyPJ(float64(s.SavedPJ())), s.SavedRatio()*100)
	fmt.Fprintf(w, "perf loss mean    %11.3f%%  (budget %.3f%%, burn %.2fx)\n",
		s.MeanPerfLoss()*100, s.MeanPreset()*100, s.BudgetBurn())

	for _, family := range []string{"level", "cluster"} {
		rows := map[string]ledger.Group{}
		for k, g := range s.Groups {
			if strings.HasPrefix(k, family+"=") {
				rows[strings.TrimPrefix(k, family+"=")] = g
			}
		}
		if len(rows) == 0 {
			continue
		}
		counts := make(map[string]int64, len(rows))
		for k, g := range rows {
			counts[k] = g.Decisions
		}
		fmt.Fprintf(w, "\n%-10s %10s %12s %10s\n", family, "decisions", "saved", "loss")
		for _, k := range sortedLabelKeys(counts) {
			g := rows[k]
			loss := 0.0
			if g.Decisions > 0 {
				loss = float64(g.PerfLossPpmSum) / 1e6 / float64(g.Decisions) * 100
			}
			fmt.Fprintf(w, "%-10s %10d %12s %9.3f%%\n", k, g.Decisions,
				ledger.FormatEnergyPJ(float64(g.EnergyMaxPJ-g.EnergyPJ)), loss)
		}
	}
	fmt.Fprintln(w)
}

// crossCheckLedger compares an online ledger snapshot against the exact
// offline replay, field by field. A dump that covers every served
// decision reproduces the integer totals exactly; the 2% tolerance
// exists for dumps whose flight-recorder ring dropped the oldest
// decisions or that were scraped mid-traffic. A replay that priced no
// decision is refused: 0 = 0 on every field would pass while checking
// nothing.
func crossCheckLedger(w io.Writer, refPath string, online, replay ledger.Snapshot) error {
	const tolerance = 0.02
	if replay.Decisions == 0 {
		return fmt.Errorf("replay priced no decisions: nothing to cross-check against %s", refPath)
	}
	fields := []struct {
		name           string
		online, replay int64
	}{
		{"decisions", online.Decisions, replay.Decisions},
		{"energy_max_pj", online.EnergyMaxPJ, replay.EnergyMaxPJ},
		{"energy_pj", online.EnergyPJ, replay.EnergyPJ},
		{"saved_pj", online.SavedPJ(), replay.SavedPJ()},
		{"perf_loss_ppm_sum", online.PerfLossPpmSum, replay.PerfLossPpmSum},
	}
	fmt.Fprintf(w, "== online vs replay cross-check: %s ==\n", refPath)
	fmt.Fprintf(w, "%-20s %16s %16s %10s\n", "field", "online", "replay", "diff")
	var bad []string
	for _, f := range fields {
		diff := 0.0
		if f.online != f.replay {
			diff = math.Abs(float64(f.online-f.replay)) / math.Max(math.Abs(float64(f.replay)), 1)
		}
		fmt.Fprintf(w, "%-20s %16d %16d %9.2f%%\n", f.name, f.online, f.replay, diff*100)
		if diff > tolerance {
			bad = append(bad, f.name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("online ledger disagrees with exact replay beyond %.0f%% tolerance: %s",
			tolerance*100, strings.Join(bad, ", "))
	}
	fmt.Fprintf(w, "cross-check PASS: all fields within the %.0f%% tolerance\n\n", tolerance*100)
	return nil
}

func sortedLabelKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, errA := strconv.Atoi(keys[i])
		b, errB := strconv.Atoi(keys[j])
		if errA == nil && errB == nil {
			return a < b
		}
		return keys[i] < keys[j]
	})
	return keys
}

// summarizeMetrics prints the sections a registry snapshot supports:
// build attribution, histograms, counters and gauges.
func summarizeMetrics(w io.Writer, snap telemetry.Snapshot) {
	if len(snap.Build) > 0 {
		fmt.Fprintln(w, "== build ==")
		for _, k := range sortedKeys(snap.Build) {
			fmt.Fprintf(w, "%-12s %s\n", k, snap.Build[k])
		}
		fmt.Fprintln(w)
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintln(w, "== distributions ==")
		fmt.Fprintf(w, "%-44s %10s %10s %10s %10s %10s\n", "histogram", "count", "mean", "p50", "p95", "p99")
		for _, id := range sortedKeys(snap.Histograms) {
			h := snap.Histograms[id]
			mean := 0.0
			if h.Count > 0 {
				mean = float64(h.Sum) / float64(h.Count)
			}
			fmt.Fprintf(w, "%-44s %10d %10.1f %10.1f %10.1f %10.1f\n", id, h.Count, mean, h.P50, h.P95, h.P99)
		}
		fmt.Fprintln(w)
	}

	if len(snap.Counters) > 0 {
		fmt.Fprintln(w, "== counters ==")
		for _, id := range sortedKeys(snap.Counters) {
			fmt.Fprintf(w, "%-52s %14d\n", id, snap.Counters[id])
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(w, "\n== gauges ==")
		for _, id := range sortedKeys(snap.Gauges) {
			fmt.Fprintf(w, "%-52s %14.2f\n", id, snap.Gauges[id])
		}
	}
}

// summarizeSpans prints a per-name phase table, and — when the capture
// carries trace-linked spans — a per-hop latency quantile table across
// the distributed hops.
func summarizeSpans(w io.Writer, spans []telemetry.SpanRecord) {
	type agg struct {
		count int
		total float64
		max   float64
		durs  []float64
	}
	byName := map[string]*agg{}
	var order []string
	traced := false
	for _, sp := range spans {
		a, ok := byName[sp.Name]
		if !ok {
			a = &agg{}
			byName[sp.Name] = a
			order = append(order, sp.Name)
		}
		a.count++
		a.total += sp.DurUs
		if sp.DurUs > a.max {
			a.max = sp.DurUs
		}
		a.durs = append(a.durs, sp.DurUs)
		if sp.TraceID != "" {
			traced = true
		}
	}
	fmt.Fprintln(w, "== spans ==")
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s\n", "phase", "count", "total_ms", "mean_ms", "max_ms")
	for _, name := range order {
		a := byName[name]
		fmt.Fprintf(w, "%-28s %8d %12.2f %12.2f %12.2f\n",
			name, a.count, a.total/1e3, a.total/1e3/float64(a.count), a.max/1e3)
	}
	fmt.Fprintln(w)

	if traced {
		fmt.Fprintln(w, "== per-hop latency ==")
		fmt.Fprintf(w, "%-28s %8s %12s %12s %12s\n", "hop", "count", "p50_us", "p99_us", "p999_us")
		for _, name := range order {
			a := byName[name]
			sort.Float64s(a.durs)
			q := func(p float64) float64 { return a.durs[int(p*float64(len(a.durs)-1))] }
			fmt.Fprintf(w, "%-28s %8d %12.1f %12.1f %12.1f\n",
				name, a.count, q(0.50), q(0.99), q(0.999))
		}
		fmt.Fprintln(w)
	}
}

// summarizeDivergence diffs the per-(epoch, cluster) operating-level
// decisions of two runs — typically a controller against an oracle.
func summarizeDivergence(w io.Writer, nameA, nameB string, a, b *epochtrace.Trace) error {
	type key struct{ epoch, cluster int }
	ref := make(map[key]int, len(b.Records))
	for _, r := range b.Records {
		ref[key{r.Epoch, r.Cluster}] = r.Level()
	}
	var agree, diverge int64
	var absDist float64
	deltas := map[int]int64{}
	for _, r := range a.Records {
		refLevel, ok := ref[key{r.Epoch, r.Cluster}]
		if !ok {
			continue
		}
		if r.Level() == refLevel {
			agree++
		} else {
			diverge++
			d := r.Level() - refLevel
			if d < 0 {
				absDist -= float64(d)
			} else {
				absDist += float64(d)
			}
			deltas[d]++
		}
	}
	if agree+diverge == 0 {
		return fmt.Errorf("traces share no (epoch, cluster) pairs")
	}
	printDivergence(w, fmt.Sprintf("%s vs %s", nameA, nameB), agree, diverge, absDist)
	if len(deltas) > 0 {
		fmt.Fprintf(w, "%-8s %10s\n", "Δlevel", "epochs")
		ds := make([]int, 0, len(deltas))
		for d := range deltas {
			ds = append(ds, d)
		}
		sort.Ints(ds)
		for _, d := range ds {
			fmt.Fprintf(w, "%+-8d %10d\n", d, deltas[d])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// summarizeDecisions renders a flight-recorder dump (the JSONL format
// written by ssmdvfsd's /debug/decisions and dvfstrace -flightrec):
// attribution, the per-reason breakdown, the level distribution,
// prediction-error statistics, and per-feature drift of the recorded
// window against the training statistics carried in the dump header.
// Output ordering is fixed (enum order for reasons, numeric order for
// levels, header order for features) so two runs over the same dump are
// byte-identical.
func summarizeDecisions(w io.Writer, path string, hdr provenance.Header, recs []provenance.Record) {
	fmt.Fprintf(w, "== decision provenance: %s ==\n", path)
	if len(hdr.Build) > 0 {
		var parts []string
		for _, k := range sortedKeys(hdr.Build) {
			parts = append(parts, k+"="+hdr.Build[k])
		}
		fmt.Fprintf(w, "build             %s\n", strings.Join(parts, " "))
	}
	if hdr.Levels > 0 || hdr.ModelParams > 0 {
		fmt.Fprintf(w, "model             %d levels, %d params\n", hdr.Levels, hdr.ModelParams)
	}
	if hdr.Head > uint64(len(recs)) {
		fmt.Fprintf(w, "records           %d of %d ever recorded (ring capacity %d)\n",
			len(recs), hdr.Head, hdr.Capacity)
	} else {
		fmt.Fprintf(w, "records           %d\n", len(recs))
	}
	if len(recs) == 0 {
		fmt.Fprintln(w)
		return
	}

	var reasons [provenance.NumReasons]int64
	levels := map[string]int64{}
	var latSum, latMax int64
	var errSum, errAbsSum float64
	var errN int64
	nFeat := len(hdr.Features)
	if len(hdr.TrainMean) < nFeat {
		nFeat = len(hdr.TrainMean)
	}
	if len(hdr.TrainStd) < nFeat {
		nFeat = len(hdr.TrainStd)
	}
	fSum := make([]float64, nFeat)
	fSumSq := make([]float64, nFeat)
	var fN int64
	for i := range recs {
		r := &recs[i]
		if int(r.Reason) < provenance.NumReasons {
			reasons[r.Reason]++
		}
		levels[strconv.Itoa(int(r.Level))]++
		latSum += r.LatencyNs
		if r.LatencyNs > latMax {
			latMax = r.LatencyNs
		}
		if r.HasPredErr {
			errSum += r.PredErr
			errAbsSum += math.Abs(r.PredErr)
			errN++
		}
		if r.Reason == provenance.ReasonModel && int(r.NumDerived) >= nFeat {
			for j := 0; j < nFeat; j++ {
				fSum[j] += r.Derived[j]
				fSumSq[j] += r.Derived[j] * r.Derived[j]
			}
			fN++
		}
	}
	total := float64(len(recs))

	fmt.Fprintf(w, "\n%-14s %10s %8s\n", "reason", "count", "share")
	for i, n := range reasons {
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "%-14s %10d %7.1f%%\n", provenance.Reason(i).String(), n, float64(n)/total*100)
	}
	degraded := int64(len(recs)) - reasons[provenance.ReasonModel]
	fmt.Fprintf(w, "%-14s %10d %7.1f%%\n", "degraded", degraded, float64(degraded)/total*100)

	fmt.Fprintf(w, "\n%-14s %10s %8s\n", "level", "count", "share")
	for _, lvl := range sortedLabelKeys(levels) {
		fmt.Fprintf(w, "%-14s %10d %7.1f%%\n", lvl, levels[lvl], float64(levels[lvl])/total*100)
	}

	fmt.Fprintf(w, "\ndecision latency  mean %.1fus  max %.1fus\n",
		float64(latSum)/total/1e3, float64(latMax)/1e3)
	if errN > 0 {
		fmt.Fprintf(w, "prediction error  MAPE %.3f  bias %+.3f  (%d samples)\n",
			errAbsSum/float64(errN), errSum/float64(errN), errN)
	}

	if nFeat > 0 && fN > 0 {
		fmt.Fprintf(w, "\n== feature drift vs training (%d model decisions) ==\n", fN)
		fmt.Fprintf(w, "%-18s %12s %12s %8s %10s\n", "feature", "train_mean", "dump_mean", "mean_z", "var_ratio")
		for j := 0; j < nFeat; j++ {
			mean := fSum[j] / float64(fN)
			z, vr := 0.0, 0.0
			if sd := hdr.TrainStd[j]; sd > 0 {
				z = (mean - hdr.TrainMean[j]) / sd
				variance := fSumSq[j]/float64(fN) - mean*mean
				if variance < 0 {
					variance = 0
				}
				vr = variance / (sd * sd)
			}
			fmt.Fprintf(w, "%-18s %12.4g %12.4g %8.2f %10.3f\n",
				hdr.Features[j], hdr.TrainMean[j], mean, z, vr)
		}
	}
	fmt.Fprintln(w)
}

func printDivergence(w io.Writer, title string, agree, diverge int64, absDist float64) {
	total := agree + diverge
	fmt.Fprintf(w, "== decision divergence: %s ==\n", title)
	fmt.Fprintf(w, "compared epochs   %12d\n", total)
	fmt.Fprintf(w, "agreement         %11.1f%%\n", float64(agree)/float64(total)*100)
	fmt.Fprintf(w, "divergence        %11.1f%%\n", float64(diverge)/float64(total)*100)
	if diverge > 0 {
		fmt.Fprintf(w, "mean |Δlevel|     %12.2f  (over divergent epochs)\n", absDist/float64(diverge))
	}
	fmt.Fprintln(w)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
