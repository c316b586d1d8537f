package qos

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock steps time manually so bucket refill is deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func newTestController(t *testing.T, cfg Config, clk *fakeClock) *Controller {
	t.Helper()
	cfg.now = clk.now
	c, err := NewController(cfg)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return c
}

func TestAdmitLadder(t *testing.T) {
	clk := newFakeClock()
	// Rate 1/s, burst 2: two immediate admits, then two degraded admits from
	// the overdraft bucket, then deny.
	c := newTestController(t, Config{Rate: 1, Burst: 2, MaxConcurrent: 100}, clk)

	for i := 0; i < 2; i++ {
		d, rel, _ := c.Admit("acme", true)
		if d != Admit {
			t.Fatalf("admit %d: got %v, want Admit", i, d)
		}
		rel()
	}
	for i := 0; i < 2; i++ {
		d, rel, _ := c.Admit("acme", true)
		if d != AdmitDegraded {
			t.Fatalf("overdraft admit %d: got %v, want AdmitDegraded", i, d)
		}
		rel()
	}
	d, rel, retry := c.Admit("acme", true)
	if d != DenyRate {
		t.Fatalf("dry buckets: got %v, want DenyRate", d)
	}
	if rel != nil {
		t.Fatal("deny must return nil release")
	}
	if retry <= 0 {
		t.Fatalf("deny must hint a positive retry-after, got %v", retry)
	}

	// One second refills one token in each bucket.
	clk.advance(time.Second)
	if d, rel, _ := c.Admit("acme", true); d != Admit {
		t.Fatalf("after refill: got %v, want Admit", d)
	} else {
		rel()
	}
}

func TestNonDegradableSkipsOverdraft(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{Rate: 1, Burst: 1, MaxConcurrent: 100}, clk)
	if d, rel, _ := c.Admit("acme", false); d != Admit {
		t.Fatalf("first: got %v, want Admit", d)
	} else {
		rel()
	}
	// Primary dry; request is not degradable, so the overdraft bucket must
	// not be consulted: straight to DenyRate.
	if d, _, _ := c.Admit("acme", false); d != DenyRate {
		t.Fatalf("non-degradable over rate: got %v, want DenyRate", d)
	}
	// A degradable request still finds the untouched overdraft bucket.
	if d, rel, _ := c.Admit("acme", true); d != AdmitDegraded {
		t.Fatalf("degradable over rate: got %v, want AdmitDegraded", d)
	} else {
		rel()
	}
}

func TestConcurrencyQuota(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{Rate: 1000, Burst: 1000, MaxConcurrent: 2}, clk)

	_, rel1, _ := c.Admit("acme", false)
	_, rel2, _ := c.Admit("acme", false)
	d, rel3, _ := c.Admit("acme", false)
	if d != DenyConcurrency {
		t.Fatalf("third in-flight: got %v, want DenyConcurrency", d)
	}
	if rel3 != nil {
		t.Fatal("deny must return nil release")
	}
	rel1()
	if d, rel, _ := c.Admit("acme", false); d != Admit {
		t.Fatalf("after release: got %v, want Admit", d)
	} else {
		rel()
	}
	// Double-release must not free a second slot.
	rel2()
	rel2()
	st, _ := c.Stats()
	if got := st["acme"].InFlight; got != 0 {
		t.Fatalf("in_flight after releases: got %d, want 0", got)
	}
}

func TestTenantIsolation(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{Rate: 1, Burst: 1, MaxConcurrent: 100}, clk)

	// Hot tenant burns both its buckets dry.
	c.Admit("hot", true)
	c.Admit("hot", true)
	if d, _, _ := c.Admit("hot", true); d != DenyRate {
		t.Fatalf("hot tenant: got %v, want DenyRate", d)
	}
	// A different tenant is untouched.
	if d, rel, _ := c.Admit("cold", true); d != Admit {
		t.Fatalf("cold tenant penalized by hot tenant: got %v, want Admit", d)
	} else {
		rel()
	}
}

func TestPriorityClasses(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{
		Rate: 1, Burst: 4, MaxConcurrent: 4,
		Tenants: map[string]string{"vip": "gold", "batch": "bronze"},
	}, clk)

	// Gold gets 4x the burst: 16 admits before the primary runs dry.
	n := 0
	for {
		d, rel, _ := c.Admit("vip", false)
		if d != Admit {
			break
		}
		rel()
		n++
	}
	if n != 16 {
		t.Fatalf("gold burst: got %d admits, want 16", n)
	}
	// Bronze gets a quarter: burst 4 * 0.25 = 1 admit.
	n = 0
	for {
		d, rel, _ := c.Admit("batch", false)
		if d != Admit {
			break
		}
		rel()
		n++
	}
	if n != 1 {
		t.Fatalf("bronze burst: got %d admits, want 1", n)
	}
	// Bronze concurrency: 4 * 0.5 = 2 slots. Bronze burst is 1 per bucket,
	// so the second admit rides the overdraft; the third must hit the
	// concurrency gate (checked before rate).
	clk.advance(time.Hour) // refill everything
	_, r1, _ := c.Admit("batch", true)
	_, r2, _ := c.Admit("batch", true)
	if d, _, _ := c.Admit("batch", true); d != DenyConcurrency {
		t.Fatalf("bronze third in-flight: got %v, want DenyConcurrency", d)
	}
	r1()
	r2()
}

func TestAnonymousSharesOneBucket(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{Rate: 1, Burst: 2, MaxConcurrent: 100}, clk)
	c.Admit("", true)
	c.Admit("", true)
	st, _ := c.Stats()
	if got := st[DefaultTenant].Admitted; got != 2 {
		t.Fatalf("anonymous admits: got %d, want 2", got)
	}
}

func TestTenantTableBounded(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{Rate: 1000, Burst: 1000, MaxConcurrent: 10, MaxTenants: 4}, clk)
	for i := 0; i < 10; i++ {
		clk.advance(time.Millisecond) // distinct lastSeen per tenant
		_, rel, _ := c.Admit(fmt.Sprintf("t%d", i), false)
		rel()
	}
	st, evicted := c.Stats()
	if len(st) > 4 {
		t.Fatalf("tenant table: got %d entries, want <= 4", len(st))
	}
	if evicted != 6 {
		t.Fatalf("evicted: got %d, want 6", evicted)
	}
	// The most recent tenants survive.
	if _, ok := st["t9"]; !ok {
		t.Fatal("most recent tenant t9 was evicted")
	}
}

func TestRateLimitDisabled(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{Rate: -1, MaxConcurrent: 100}, clk)
	for i := 0; i < 100; i++ {
		d, rel, _ := c.Admit("acme", false)
		if d != Admit {
			t.Fatalf("admit %d with rate disabled: got %v", i, d)
		}
		rel()
	}
}

func TestParseTenantClasses(t *testing.T) {
	m, err := ParseTenantClasses("vip=gold, batch=bronze,plain=standard")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := map[string]string{"vip": "gold", "batch": "bronze", "plain": "standard"}
	for k, v := range want {
		if m[k] != v {
			t.Fatalf("tenant %q: got %q, want %q", k, m[k], v)
		}
	}
	if _, err := ParseTenantClasses("vip=platinum"); err == nil {
		t.Fatal("unknown class must error")
	}
	if _, err := ParseTenantClasses("=gold"); err == nil {
		t.Fatal("empty tenant must error")
	}
	if m, err := ParseTenantClasses(""); err != nil || m != nil {
		t.Fatalf("empty spec: got %v, %v", m, err)
	}
}

func TestControllerConcurrentAccess(t *testing.T) {
	c, err := NewController(Config{Rate: 10000, Burst: 10000, MaxConcurrent: 64, MaxTenants: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d, rel, _ := c.Admit(fmt.Sprintf("t%d", (g+i)%12), i%2 == 0)
				if d == Admit || d == AdmitDegraded {
					rel()
				}
			}
		}(g)
	}
	wg.Wait()
	c.Stats()
}

func TestDecisionString(t *testing.T) {
	cases := map[Decision]string{
		Admit: "admit", AdmitDegraded: "admit_degraded",
		DenyRate: "deny_rate", DenyConcurrency: "deny_concurrency",
	}
	for d, want := range cases {
		if d.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(d), d.String(), want)
		}
	}
}
