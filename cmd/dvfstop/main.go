// Command dvfstop is the live terminal dashboard over the fleet
// efficiency ledger: it polls a router's (or a single replica's)
// /debug/ledger endpoint and renders what the system is actually
// optimizing — estimated energy saved versus running everything at
// MaxFreq, mean performance loss against the requested budget, the
// per-level/per-shard breakdown, and any firing alert rules.
//
// Usage:
//
//	dvfstop -url http://router:8093 [-interval 1s] [-once]
//
// Point -url at a dvfsfleet router started with -replica-http for the
// fleet-wide merged view (per-replica rows included), or directly at one
// ssmdvfsd replica started with -ledger for a single-replica view.
// -once renders a single frame without clearing the screen and exits —
// the scriptable mode smoke tests use.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"ssmdvfs/internal/buildinfo"
	"ssmdvfs/internal/fleet"
	"ssmdvfs/internal/ledger"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8093", "router or replica base URL (its /debug/ledger is polled)")
		interval = flag.Duration("interval", time.Second, "refresh interval")
		once     = flag.Bool("once", false, "render one frame and exit (no screen clearing)")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("dvfstop", buildinfo.String())
		return
	}
	if err := run(os.Stdout, *url, *interval, *once); err != nil {
		fmt.Fprintln(os.Stderr, "dvfstop:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, url string, interval time.Duration, once bool) error {
	url = strings.TrimRight(url, "/")
	if once {
		agg, isFleet, err := fleet.FetchLedger(url)
		if err != nil {
			return err
		}
		render(w, url, agg, isFleet)
		return nil
	}
	for {
		agg, isFleet, err := fleet.FetchLedger(url)
		fmt.Fprint(w, "\x1b[H\x1b[2J") // home + clear
		if err != nil {
			fmt.Fprintf(w, "dvfstop: %v (retrying every %s)\n", err, interval)
		} else {
			render(w, url, agg, isFleet)
		}
		time.Sleep(interval)
	}
}

// render writes one deterministic dashboard frame: the merged snapshot
// plus, when the source is a router (isFleet), the per-replica rows and
// alert states.
func render(w io.Writer, src string, v *fleet.LedgerAggregate, isFleet bool) {
	fmt.Fprint(w, "dvfstop — ")
	fleet.WriteLedgerHeadline(w, src, v, isFleet)
	s := v.Merged

	if levels := groupRows(s, "level="); len(levels) > 0 {
		fmt.Fprintf(w, "\n  %-12s %10s %12s %10s\n", "level", "decisions", "saved", "loss")
		for _, g := range levels {
			fmt.Fprintf(w, "  %-12s %10d %12s %9.3f%%\n", g.key, g.g.Decisions,
				ledger.FormatEnergyPJ(float64(g.g.EnergyMaxPJ-g.g.EnergyPJ)), meanLossPct(g.g))
		}
	}
	if shards := groupRows(s, "cluster="); len(shards) > 0 {
		fmt.Fprintf(w, "\n  %-12s %10s %12s %10s\n", "cluster", "decisions", "saved", "loss")
		for _, g := range shards {
			fmt.Fprintf(w, "  %-12s %10d %12s %9.3f%%\n", g.key, g.g.Decisions,
				ledger.FormatEnergyPJ(float64(g.g.EnergyMaxPJ-g.g.EnergyPJ)), meanLossPct(g.g))
		}
	}

	if len(v.Replicas) > 0 {
		fmt.Fprintf(w, "\n  %-28s %10s %12s  %s\n", "replica", "decisions", "saved", "status")
		for _, r := range v.Replicas {
			status := "ok"
			if r.Err != "" {
				status = "ERR " + r.Err
			}
			fmt.Fprintf(w, "  %-28s %10d %12s  %s\n", r.Addr, r.Snapshot.Decisions,
				ledger.FormatEnergyPJ(float64(r.Snapshot.SavedPJ())), status)
		}
	}
}

type groupRow struct {
	key string
	g   ledger.Group
}

// groupRows selects one breakdown family out of the snapshot's flat
// group map, sorted by key for a stable frame.
func groupRows(s ledger.Snapshot, prefix string) []groupRow {
	var out []groupRow
	for k, g := range s.Groups {
		if strings.HasPrefix(k, prefix) {
			out = append(out, groupRow{key: k, g: g})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		// Numeric-aware: "level=2" before "level=10".
		a, b := out[i].key, out[j].key
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

func meanLossPct(g ledger.Group) float64 {
	if g.Decisions <= 0 {
		return 0
	}
	return float64(g.PerfLossPpmSum) / 1e6 / float64(g.Decisions) * 100
}
