package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// spread is the distance between the quartiles as a share of the median.
func (m *metricRuns) spread() float64 {
	if m.Median == 0 {
		return 0
	}
	return math.Abs((m.Q3 - m.Q1) / m.Median)
}

// verdict judges run set b against run set a for one end-to-end metric.
// worseBy is how much worse b's median is than a's, as a share of a's.
//
//	worse       b's median is worse than a's by more than the bound
//	unresolved  either set's own spread is wider than the bound, so a
//	            difference of the bound's size cannot be told from noise —
//	            unless the sets do not overlap at all, which settles it
//	ok          otherwise
func verdict(a, b *metricRuns, lower bool, bound float64) (worseBy float64, v string) {
	sign := 1.0
	if !lower {
		sign = -1
	}
	if a.Median != 0 {
		worseBy = sign * (b.Median - a.Median) / math.Abs(a.Median)
	}
	if math.Max(a.spread(), b.spread()) > bound {
		loA, hiA := minMax(a.Values)
		loB, hiB := minMax(b.Values)
		allBetter := lower && hiB < loA || !lower && loB > hiA
		allWorse := lower && loB > hiA || !lower && hiB < loA
		switch {
		case allBetter:
			return worseBy, "ok"
		case allWorse && worseBy > bound:
			return worseBy, "worse"
		}
		return worseBy, "unresolved"
	}
	if worseBy > bound {
		return worseBy, "worse"
	}
	return worseBy, "ok"
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// compareFiles prints, per workload and metric, both medians, the ratio
// with its base, the bound from BENCHMARK.json and the verdict, and
// returns the exit code: 1 if any end-to-end metric is worse or either
// file counts a failed operation.
func compareFiles(man *manifest, pathA, pathB string, out io.Writer) int {
	var files [2]*runFile
	for i, path := range []string{pathA, pathB} {
		f, err := readRunFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		files[i] = f
	}
	a, b := files[0], files[1]
	status := 0
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta (median of %d)\tb (median of %d)\tunit\tb/a\tbound\tverdict\n", a.Env.Runs, b.Env.Runs)
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fmt.Fprintf(tw, "%s\tfailed operations\t%d\t%d\tcount\t\t0\tworse\n", name, wa.Failed, wb.Failed)
			status = 1
		}
		for _, m := range man.EndToEnd {
			ma, mb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if ma == nil || mb == nil {
				continue
			}
			worseBy, v := verdict(ma, mb, m.Better == "lower", m.Bound)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.3f of %.6g\t%.2f\t%s (%+.1f%%)\n",
				name, m.Name, ma.Median, mb.Median, ma.Unit, ratio(mb.Median, ma.Median), ma.Median, m.Bound, v, 100*worseBy)
		}
		for _, d := range perLayer {
			ma, mb := wa.PerLayer[d.name], wb.PerLayer[d.name]
			if ma == nil || mb == nil || (d.owner != "" && d.owner != name) {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.3f of %.6g\t\tlayer\n",
				name, d.name, ma.Median, mb.Median, ma.Unit, ratio(mb.Median, ma.Median), ma.Median)
		}
	}
	tw.Flush()
	return status
}

func ratio(b, a float64) float64 {
	if a == 0 {
		return 0
	}
	return b / a
}
