package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Parse builds an injector from a flag-friendly spec string:
//
//	site:kind[:key=value]...  entries separated by ';'
//
// where kind is error|panic|latency|corrupt and the keys are every=N
// (fire on every Nth call), rate=F (probability per call, deterministic
// for the seed), latency=DUR (sleep for latency kinds, e.g. 2ms), and
// limit=N (cap total fires). With neither every nor rate the site fires
// on every call. Examples:
//
//	serve.infer:panic:every=97
//	serve.decide:latency:latency=2ms:rate=0.05;serve.reload:corrupt
//
// An empty spec returns a nil injector — the disabled, zero-cost state —
// so a flag value can be passed straight through.
func Parse(spec string, seed int64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	inj := New(seed)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		fields := strings.Split(entry, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("faults: entry %q needs at least site:kind", entry)
		}
		kind, err := ParseKind(fields[1])
		if err != nil {
			return nil, err
		}
		sp := Spec{Kind: kind}
		for _, kv := range fields[2:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faults: entry %q: parameter %q is not key=value", entry, kv)
			}
			switch key {
			case "every":
				if sp.Every, err = strconv.ParseInt(val, 10, 64); err != nil {
					return nil, fmt.Errorf("faults: entry %q: bad every: %w", entry, err)
				}
			case "rate":
				if sp.Rate, err = strconv.ParseFloat(val, 64); err != nil {
					return nil, fmt.Errorf("faults: entry %q: bad rate: %w", entry, err)
				}
			case "latency":
				var d time.Duration
				if d, err = time.ParseDuration(val); err != nil {
					return nil, fmt.Errorf("faults: entry %q: bad latency: %w", entry, err)
				}
				sp.Latency = d
			case "limit":
				if sp.Limit, err = strconv.ParseInt(val, 10, 64); err != nil {
					return nil, fmt.Errorf("faults: entry %q: bad limit: %w", entry, err)
				}
			default:
				return nil, fmt.Errorf("faults: entry %q: unknown parameter %q", entry, key)
			}
		}
		if err := inj.Arm(fields[0], sp); err != nil {
			return nil, fmt.Errorf("faults: entry %q: %w", entry, err)
		}
	}
	return inj, nil
}
