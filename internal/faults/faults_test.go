package faults

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if err := inj.Inject("anything"); err != nil {
		t.Fatalf("nil injector returned error: %v", err)
	}
	if inj.Corrupt("anything") {
		t.Fatal("nil injector fired corruption")
	}
	if inj.Fired("anything") != 0 {
		t.Fatal("nil injector has counts")
	}
	if inj.Snapshot() != nil {
		t.Fatal("nil injector snapshot not nil")
	}
	if inj.String() != "faults: disabled" {
		t.Fatalf("nil injector String = %q", inj.String())
	}
	allocs := testing.AllocsPerRun(1000, func() {
		_ = inj.Inject("serve.infer")
		_ = inj.Corrupt("serve.reload")
	})
	if allocs != 0 {
		t.Fatalf("nil injector allocates %.1f per call, want 0", allocs)
	}
}

func TestEveryAndLimit(t *testing.T) {
	inj := New(1)
	if err := inj.Arm("s", Spec{Kind: KindError, Every: 3, Limit: 2}); err != nil {
		t.Fatal(err)
	}
	var errs int
	for i := 1; i <= 12; i++ {
		err := inj.Inject("s")
		if err != nil {
			errs++
			var ie *InjectedError
			if !errors.As(err, &ie) || ie.Site != "s" {
				t.Fatalf("unexpected error value %v", err)
			}
		}
		if wantFire := i%3 == 0 && i <= 6; (err != nil) != wantFire {
			t.Fatalf("call %d: fired=%v, want %v", i, err != nil, wantFire)
		}
	}
	if errs != 2 {
		t.Fatalf("fired %d times, want 2 (limit)", errs)
	}
	if calls := inj.lookup("s").calls.Load(); inj.Fired("s") != 2 || calls != 12 {
		t.Fatalf("counts fired=%d calls=%d", inj.Fired("s"), calls)
	}
}

func TestRateIsDeterministicPerSeed(t *testing.T) {
	pattern := func(seed int64) []bool {
		inj := New(seed)
		if err := inj.Arm("s", Spec{Kind: KindError, Rate: 0.3}); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		for i := range out {
			out[i] = inj.Inject("s") != nil
		}
		return out
	}
	a, b := pattern(7), pattern(7)
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires < 30 || fires > 90 {
		t.Fatalf("rate 0.3 fired %d/200 times, implausible", fires)
	}
	c := pattern(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical patterns")
	}
}

func TestConcurrentFireCountMatchesSerial(t *testing.T) {
	const calls = 900
	serial := New(3)
	if err := serial.Arm("s", Spec{Kind: KindError, Every: 9}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < calls; i++ {
		serial.Inject("s")
	}

	conc := New(3)
	if err := conc.Arm("s", Spec{Kind: KindError, Every: 9}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 9; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls/9; i++ {
				conc.Inject("s")
			}
		}()
	}
	wg.Wait()
	if serial.Fired("s") != conc.Fired("s") {
		t.Fatalf("concurrent fired %d, serial %d", conc.Fired("s"), serial.Fired("s"))
	}
}

func TestPanicAndLatencyAndCorrupt(t *testing.T) {
	inj := New(1)
	var slept time.Duration
	inj.sleep = func(d time.Duration) { slept += d }
	for name, sp := range map[string]Spec{
		"p": {Kind: KindPanic},
		"l": {Kind: KindLatency, Latency: 5 * time.Millisecond},
		"c": {Kind: KindCorrupt, Every: 2},
	} {
		if err := inj.Arm(name, sp); err != nil {
			t.Fatal(err)
		}
	}

	func() {
		defer func() {
			r := recover()
			if _, ok := r.(*InjectedPanic); !ok {
				t.Errorf("recover() = %v, want *InjectedPanic", r)
			}
		}()
		inj.Inject("p")
		t.Error("panic site did not panic")
	}()

	if err := inj.Inject("l"); err != nil {
		t.Fatal(err)
	}
	if slept != 5*time.Millisecond {
		t.Fatalf("latency site slept %v", slept)
	}

	if inj.Corrupt("c") {
		t.Fatal("corrupt every=2 fired on call 1")
	}
	if !inj.Corrupt("c") {
		t.Fatal("corrupt every=2 did not fire on call 2")
	}
	if err := inj.Inject("c"); err != nil {
		t.Fatal("Inject fired a corrupt site")
	}
	if inj.Corrupt("p") {
		t.Fatal("Corrupt fired a panic site")
	}
}

func TestArmValidation(t *testing.T) {
	inj := New(1)
	bad := []Spec{
		{Kind: 0},
		{Kind: KindError, Rate: 1.5},
		{Kind: KindError, Rate: math.NaN()},
		{Kind: KindError, Every: -1},
		{Kind: KindLatency}, // no latency value
	}
	for i, sp := range bad {
		if err := inj.Arm("s", sp); err == nil {
			t.Fatalf("spec %d accepted: %+v", i, sp)
		}
	}
	if err := (*Injector)(nil).Arm("s", Spec{Kind: KindError}); err == nil {
		t.Fatal("arming nil injector accepted")
	}
}

func TestParse(t *testing.T) {
	inj, err := Parse("a:panic:every=97; b:latency:latency=2ms:rate=0.05 ;c:corrupt", 42)
	if err != nil {
		t.Fatal(err)
	}
	m := *inj.sites.Load()
	if len(m) != 3 {
		t.Fatalf("parsed %d sites, want 3", len(m))
	}
	if sp := m["a"].spec; sp.Kind != KindPanic || sp.Every != 97 {
		t.Fatalf("site a spec %+v", sp)
	}
	if sp := m["b"].spec; sp.Kind != KindLatency || sp.Latency != 2*time.Millisecond || sp.Rate != 0.05 {
		t.Fatalf("site b spec %+v", sp)
	}
	if sp := m["c"].spec; sp.Kind != KindCorrupt || sp.Every != 1 {
		t.Fatalf("site c spec %+v (want default every=1)", sp)
	}

	if inj, err := Parse("", 1); inj != nil || err != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", inj, err)
	}
	for _, bad := range []string{"justasite", "a:nosuchkind", "a:error:every", "a:error:bogus=1", "a:error:rate=x"} {
		if _, err := Parse(bad, 1); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
	// A NaN rate fails both of Arm's range comparisons; a site armed with
	// it would never fire. The refusal names the clause.
	for _, bad := range []string{"serve.infer:error:rate=NaN", "a:error:rate=+Inf", "a:error:rate=-Inf"} {
		if _, err := Parse("ok:error;"+bad, 1); err == nil || !strings.Contains(err.Error(), bad) {
			t.Fatalf("spec %q: err = %v, want a refusal naming the clause", bad, err)
		}
	}
}

// FuzzFaultsParse: whatever spec Parse accepts arms only sites whose
// rate is in [0, 1] and whose every, limit and latency are non-negative.
func FuzzFaultsParse(f *testing.F) {
	for _, seed := range []string{
		"a:panic:every=97; b:latency:latency=2ms:rate=0.05 ;c:corrupt",
		"serve.infer:error:rate=NaN",
		"serve.decide:latency:latency=1ms:every=300:limit=4",
		"a:error:rate=1e-300;b:error:rate=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		inj, err := Parse(spec, 1)
		if err != nil || inj == nil {
			return
		}
		for name, st := range *inj.sites.Load() {
			sp := st.spec
			if !(sp.Rate >= 0 && sp.Rate <= 1) || sp.Every < 0 || sp.Limit < 0 || sp.Latency < 0 {
				t.Fatalf("spec %q armed site %q with %+v", spec, name, sp)
			}
		}
	})
}
