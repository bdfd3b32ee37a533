// Package faults is a seeded, deterministic fault-injection framework.
// Code under test (or under chaos in production-like runs) declares named
// injection sites — "serve.infer", "core.decide", "client.io" — and an
// Injector armed with per-site Specs decides, deterministically for a
// given seed and call sequence, when each site fires an error, a panic,
// extra latency, or a corruption flag.
//
// The Injector is nil-safe: every method on a nil *Injector is a cheap
// no-op, so injection sites can be threaded through hot paths
// unconditionally — the disabled path costs one nil check and allocates
// nothing. Arm sites before the injector is shared between goroutines;
// firing itself is concurrency-safe (atomic call counters), and for a
// fixed total number of calls to a site the set of call indices that fire
// is the same regardless of goroutine interleaving.
package faults

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies what a site does when it fires.
type Kind uint8

const (
	// KindError makes Inject return an *InjectedError.
	KindError Kind = iota + 1
	// KindPanic makes Inject panic with an *InjectedPanic.
	KindPanic
	// KindLatency makes Inject sleep for Spec.Latency before returning nil.
	KindLatency
	// KindCorrupt makes Corrupt return true; Inject ignores corrupt sites,
	// so the caller decides what "corrupt" means for its payload.
	KindCorrupt
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindLatency:
		return "latency"
	case KindCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind maps a spec-string kind name back to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "error":
		return KindError, nil
	case "panic":
		return KindPanic, nil
	case "latency":
		return KindLatency, nil
	case "corrupt":
		return KindCorrupt, nil
	default:
		return 0, fmt.Errorf("faults: unknown kind %q (want error|panic|latency|corrupt)", s)
	}
}

// Spec arms one site. A site fires on every Every-th call and/or with
// probability Rate per call (deterministic given the seed and the call
// index); if neither is set the site fires on every call. Limit, when
// positive, caps total fires.
type Spec struct {
	Kind    Kind
	Every   int64
	Rate    float64
	Latency time.Duration
	Limit   int64
}

type site struct {
	name  string
	spec  Spec
	calls atomic.Int64
	fired atomic.Int64
}

// Injector decides when armed sites fire. The zero-cost disabled state is
// a nil *Injector.
type Injector struct {
	seed  uint64
	sleep func(time.Duration) // test hook; time.Sleep by default

	mu    sync.Mutex
	sites atomic.Pointer[map[string]*site]
}

// New returns an injector with no armed sites.
func New(seed int64) *Injector {
	inj := &Injector{seed: uint64(seed), sleep: time.Sleep}
	m := map[string]*site{}
	inj.sites.Store(&m)
	return inj
}

// Arm installs (or replaces) the spec for the named site. Arming resets
// the site's call and fire counters.
func (inj *Injector) Arm(name string, sp Spec) error {
	if inj == nil {
		return fmt.Errorf("faults: cannot arm a nil injector")
	}
	if name == "" {
		return fmt.Errorf("faults: empty site name")
	}
	if sp.Kind < KindError || sp.Kind > KindCorrupt {
		return fmt.Errorf("faults: site %s has invalid kind %d", name, sp.Kind)
	}
	if !(sp.Rate >= 0 && sp.Rate <= 1) { // NaN fails both and is refused
		return fmt.Errorf("faults: site %s rate %g outside [0,1]", name, sp.Rate)
	}
	if sp.Every < 0 || sp.Limit < 0 || sp.Latency < 0 {
		return fmt.Errorf("faults: site %s has negative every/limit/latency", name)
	}
	if sp.Kind == KindLatency && sp.Latency <= 0 {
		return fmt.Errorf("faults: latency site %s needs a positive latency", name)
	}
	if sp.Every == 0 && sp.Rate == 0 {
		sp.Every = 1
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	old := *inj.sites.Load()
	m := make(map[string]*site, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[name] = &site{name: name, spec: sp}
	inj.sites.Store(&m)
	return nil
}

func (inj *Injector) lookup(name string) *site {
	return (*inj.sites.Load())[name]
}

// shouldFire advances the site's call counter and reports whether this
// call fires, honouring the fire limit exactly even under concurrency.
func (st *site) shouldFire(seed uint64) bool {
	n := st.calls.Add(1)
	sp := &st.spec
	fire := sp.Every > 0 && n%sp.Every == 0
	if !fire && sp.Rate > 0 {
		h := Mix64(seed ^ HashString(st.name) ^ uint64(n)*0x9e3779b97f4a7c15)
		fire = float64(h>>11)*(1.0/(1<<53)) < sp.Rate
	}
	if !fire {
		return false
	}
	if sp.Limit > 0 {
		for {
			f := st.fired.Load()
			if f >= sp.Limit {
				return false
			}
			if st.fired.CompareAndSwap(f, f+1) {
				return true
			}
		}
	}
	st.fired.Add(1)
	return true
}

// InjectedError is the error returned by a fired error-kind site.
type InjectedError struct {
	Site string
	N    int64 // 1-based fire index at this site
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected error at %s (fire %d)", e.Site, e.N)
}

// InjectedPanic is the value a fired panic-kind site panics with.
type InjectedPanic struct {
	Site string
	N    int64
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("faults: injected panic at %s (fire %d)", p.Site, p.N)
}

// Inject evaluates the named site. Error sites return a non-nil error,
// panic sites panic with an *InjectedPanic, latency sites sleep for the
// armed latency; corrupt sites (and unarmed or non-firing sites) return
// nil. Nil-safe.
func (inj *Injector) Inject(name string) error {
	if inj == nil {
		return nil
	}
	st := inj.lookup(name)
	if st == nil || st.spec.Kind == KindCorrupt || !st.shouldFire(inj.seed) {
		return nil
	}
	switch st.spec.Kind {
	case KindPanic:
		panic(&InjectedPanic{Site: name, N: st.fired.Load()})
	case KindLatency:
		inj.sleep(st.spec.Latency)
		return nil
	default:
		return &InjectedError{Site: name, N: st.fired.Load()}
	}
}

// Corrupt reports whether a corruption-kind site fires on this call; the
// caller then corrupts its own payload. Non-corrupt sites never fire
// through Corrupt. Nil-safe.
func (inj *Injector) Corrupt(name string) bool {
	if inj == nil {
		return false
	}
	st := inj.lookup(name)
	if st == nil || st.spec.Kind != KindCorrupt {
		return false
	}
	return st.shouldFire(inj.seed)
}

// Fired returns how many times the named site has fired. Nil-safe.
func (inj *Injector) Fired(name string) int64 {
	if inj == nil {
		return 0
	}
	if st := inj.lookup(name); st != nil {
		return st.fired.Load()
	}
	return 0
}

// Snapshot returns fired counts per armed site. Nil-safe (returns nil).
func (inj *Injector) Snapshot() map[string]int64 {
	if inj == nil {
		return nil
	}
	m := *inj.sites.Load()
	out := make(map[string]int64, len(m))
	for name, st := range m {
		out[name] = st.fired.Load()
	}
	return out
}

// String renders the armed sites and their fire counts, sorted by name.
func (inj *Injector) String() string {
	if inj == nil {
		return "faults: disabled"
	}
	m := *inj.sites.Load()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("faults:")
	for _, name := range names {
		st := m[name]
		fmt.Fprintf(&b, " %s=%s(%d/%d)", name, st.spec.Kind, st.fired.Load(), st.calls.Load())
	}
	return b.String()
}

// Mix64 is the SplitMix64 finalizer, exported so callers (e.g. backoff
// jitter) can derive deterministic pseudo-randomness from the same
// arithmetic the injector uses.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashString is FNV-1a over s, allocation-free.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
