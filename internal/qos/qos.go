// Package qos provides per-tenant quality-of-service admission for the
// router tier (and anything else fronting merlind): token-bucket rate
// limits, concurrency quotas, and priority classes, all keyed by a tenant
// name. Everything is stdlib-only and dependency-free.
//
// The design goal is fleet isolation: one hot tenant must degrade *itself*
// — first into degraded-tier answers, then into structured 429s — while
// every other tenant keeps its full budget. A Controller therefore keeps an
// independent bucket pair and concurrency gauge per tenant; nothing is
// shared across tenants except the table itself (bounded, idle-evicted).
//
// Admission is a three-step ladder, evaluated per request:
//
//  1. Concurrency: a tenant at its in-flight quota is refused outright
//     (DenyConcurrency → 429). Concurrency is the one resource that cannot
//     be borrowed against the future, so there is no degraded form.
//  2. Rate, primary bucket: a token admits the request at full service
//     (Admit).
//  3. Rate, overdraft bucket: a separate bucket refilled at the same rate
//     admits the request *degraded* (AdmitDegraded) — the caller forwards
//     it with the degradation ladder enabled, so the tenant gets a cheaper
//     tier instead of an error. When both buckets are dry the request is
//     refused (DenyRate → 429) with a truthful retry-after.
//
// Priority classes scale a tenant's budgets: gold gets 4× the configured
// rate and 2× the concurrency, bronze a quarter of each. Class membership
// is static configuration (Config.Tenants); unknown tenants get the
// standard class.
package qos

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Decision is the outcome of one Admit call.
type Decision int

const (
	// Admit serves the request at full service.
	Admit Decision = iota
	// AdmitDegraded serves the request with the degradation ladder enabled:
	// the tenant is over its primary rate but inside the overdraft budget,
	// so it gets a (possibly) cheaper tier instead of a 429.
	AdmitDegraded
	// DenyRate refuses the request: both buckets are dry (429, with a
	// retry-after derived from the refill rate).
	DenyRate
	// DenyConcurrency refuses the request: the tenant is at its in-flight
	// quota (429; retrying after any of its requests finishes will succeed).
	DenyConcurrency
)

// String names the decision for stats and trace attributes.
func (d Decision) String() string {
	switch d {
	case Admit:
		return "admit"
	case AdmitDegraded:
		return "admit_degraded"
	case DenyRate:
		return "deny_rate"
	case DenyConcurrency:
		return "deny_concurrency"
	}
	return fmt.Sprintf("decision(%d)", int(d))
}

// Admitted reports whether the decision lets the request through.
func (d Decision) Admitted() bool { return d == Admit || d == AdmitDegraded }

// Class scales a tenant's budgets relative to the configured base.
type Class struct {
	Name string
	// RateMult scales the refill rate and burst of both buckets.
	RateMult float64
	// ConcMult scales the concurrency quota (result rounded up, min 1).
	ConcMult float64
}

// The built-in priority classes. Gold is for latency-sensitive tenants,
// bronze for batch/background traffic that should yield first.
var (
	ClassGold     = Class{Name: "gold", RateMult: 4, ConcMult: 2}
	ClassStandard = Class{Name: "standard", RateMult: 1, ConcMult: 1}
	ClassBronze   = Class{Name: "bronze", RateMult: 0.25, ConcMult: 0.5}
)

// ParseClass resolves a class name ("gold", "standard", "bronze").
func ParseClass(name string) (Class, error) {
	switch strings.ToLower(name) {
	case "gold":
		return ClassGold, nil
	case "", "standard":
		return ClassStandard, nil
	case "bronze":
		return ClassBronze, nil
	}
	return Class{}, fmt.Errorf("qos: unknown class %q (want gold, standard or bronze)", name)
}

// Config sizes a Controller. Zero values take the documented defaults.
type Config struct {
	// Rate is the standard-class refill rate in requests/second; default 50.
	// Negative disables rate limiting entirely (every Admit that clears the
	// concurrency gate returns Admit).
	Rate float64
	// Burst is the bucket depth in requests; default 2×Rate (min 1). A full
	// bucket absorbs a burst of this size before the rate gates.
	Burst float64
	// MaxConcurrent is the standard-class in-flight quota; default 32.
	// Negative disables the concurrency gate.
	MaxConcurrent int
	// MaxTenants bounds the tenant table; default 1024. When full, the
	// longest-idle tenant is evicted (it re-enters later with fresh, full
	// buckets — a brief over-admit beats unbounded memory for a cardinality
	// attack via the tenant header).
	MaxTenants int
	// Tenants maps tenant name → class name ("gold", "standard", "bronze").
	// Unlisted tenants are standard.
	Tenants map[string]string

	// now substitutes the clock in tests.
	now func() time.Time
}

func (c Config) withDefaults() (Config, error) {
	if c.Rate == 0 {
		c.Rate = 50
	}
	if c.Burst == 0 {
		c.Burst = 2 * c.Rate
	}
	if c.Burst < 1 {
		c.Burst = 1
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 32
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1024
	}
	if c.now == nil {
		c.now = time.Now
	}
	for tenant, class := range c.Tenants {
		if _, err := ParseClass(class); err != nil {
			return Config{}, fmt.Errorf("qos: tenant %q: %w", tenant, err)
		}
	}
	return c, nil
}

// bucket is one token bucket. Tokens refill continuously at rate/sec up to
// burst; take consumes one when available.
type bucket struct {
	tokens float64
	last   time.Time
}

func (b *bucket) take(now time.Time, rate, burst float64) bool {
	b.tokens += now.Sub(b.last).Seconds() * rate
	b.last = now
	if b.tokens > burst {
		b.tokens = burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// tenant is one tenant's live state.
type tenant struct {
	name      string
	class     Class
	primary   bucket
	overdraft bucket
	inflight  int
	lastSeen  time.Time

	// counters for TenantStats
	admitted   uint64
	degraded   uint64
	rateDenied uint64
	concDenied uint64
}

// Controller admits requests per tenant. Safe for concurrent use.
type Controller struct {
	cfg Config

	// fleetLevel is the router-published fleet brownout level. At ≥ 1
	// bronze tenants lose the overdraft courtesy, at ≥ 2 standard tenants
	// do too: an over-rate request that would have been served degraded
	// gets a truthful 429 instead (the tenant *is* over its primary rate —
	// the overdraft was always a fair-weather extra), shedding the classes
	// that should yield first while the fleet is browning out.
	fleetLevel atomic.Int32

	mu      sync.Mutex
	tenants map[string]*tenant
	evicted uint64
}

// SetFleetLevel publishes the fleet brownout level (0 = calm). Routers
// call this from their fleet controller; it is cheap and lock-free.
func (c *Controller) SetFleetLevel(level int32) { c.fleetLevel.Store(level) }

// overdraftAllowed reports whether the tenant's class keeps its overdraft
// courtesy at the current fleet level.
func (c *Controller) overdraftAllowed(cl Class) bool {
	switch l := c.fleetLevel.Load(); {
	case l >= 2:
		return cl.Name == ClassGold.Name
	case l >= 1:
		return cl.Name != ClassBronze.Name
	}
	return true
}

// NewController builds a controller; it returns an error only for an
// unparseable class in Config.Tenants.
func NewController(cfg Config) (*Controller, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Controller{cfg: c, tenants: make(map[string]*tenant)}, nil
}

// DefaultTenant is the bucket anonymous traffic lands in when no tenant
// header is present: unlabeled clients share one standard-class budget
// instead of each minting a fresh one.
const DefaultTenant = "anonymous"

// Admit runs the admission ladder for one request from the tenant.
// degradable reports whether the caller can serve this request degraded
// (e.g. a Flow III route); when false, the overdraft step is skipped and an
// over-rate request goes straight to DenyRate.
//
// On Admit/AdmitDegraded the returned release must be called exactly once
// when the request finishes — it frees the concurrency slot. On deny,
// release is nil and retryAfter hints when a token will exist.
func (c *Controller) Admit(name string, degradable bool) (d Decision, release func(), retryAfter time.Duration) {
	if name == "" {
		name = DefaultTenant
	}
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenantLocked(name, now)
	t.lastSeen = now

	rate := c.cfg.Rate * t.class.RateMult
	burst := c.cfg.Burst * t.class.RateMult
	maxConc := c.maxConcFor(t.class)

	if maxConc > 0 && t.inflight >= maxConc {
		t.concDenied++
		// Concurrency frees up as soon as any in-flight request finishes;
		// one refill interval is an honest, cheap hint.
		return DenyConcurrency, nil, retryHint(rate)
	}
	switch {
	case c.cfg.Rate < 0 || t.primary.take(now, rate, burst):
		t.admitted++
		t.inflight++
		return Admit, c.releaseFunc(name), 0
	case degradable && c.overdraftAllowed(t.class) && t.overdraft.take(now, rate, burst):
		t.degraded++
		t.inflight++
		return AdmitDegraded, c.releaseFunc(name), 0
	default:
		t.rateDenied++
		return DenyRate, nil, retryHint(rate)
	}
}

// retryHint is the time until one token refills, clamped to [100ms, 30s].
func retryHint(rate float64) time.Duration {
	if rate <= 0 {
		return time.Second
	}
	d := time.Duration(float64(time.Second) / rate)
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

func (c *Controller) maxConcFor(cl Class) int {
	if c.cfg.MaxConcurrent < 0 {
		return 0 // disabled
	}
	n := int(float64(c.cfg.MaxConcurrent)*cl.ConcMult + 0.999)
	if n < 1 {
		n = 1
	}
	return n
}

// releaseFunc returns the idempotent concurrency release for one admit.
func (c *Controller) releaseFunc(name string) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			if t, ok := c.tenants[name]; ok && t.inflight > 0 {
				t.inflight--
			}
			c.mu.Unlock()
		})
	}
}

// tenantLocked finds or creates the tenant, evicting the longest-idle
// zero-inflight tenant when the table is full. Callers hold c.mu.
func (c *Controller) tenantLocked(name string, now time.Time) *tenant {
	if t, ok := c.tenants[name]; ok {
		return t
	}
	if len(c.tenants) >= c.cfg.MaxTenants {
		var victim *tenant
		for _, t := range c.tenants {
			if t.inflight > 0 {
				continue
			}
			if victim == nil || t.lastSeen.Before(victim.lastSeen) {
				victim = t
			}
		}
		if victim != nil {
			delete(c.tenants, victim.name)
			c.evicted++
		}
	}
	cl := ClassStandard
	if cname, ok := c.cfg.Tenants[name]; ok {
		cl, _ = ParseClass(cname) // validated at NewController
	}
	t := &tenant{
		name:  name,
		class: cl,
		// New tenants start with full buckets: the first burst is free.
		primary:   bucket{tokens: c.cfg.Burst * cl.RateMult, last: now},
		overdraft: bucket{tokens: c.cfg.Burst * cl.RateMult, last: now},
	}
	c.tenants[name] = t
	return t
}

// TenantStats is one tenant's /v1/stats row.
type TenantStats struct {
	Class      string  `json:"class"`
	InFlight   int     `json:"in_flight"`
	Admitted   uint64  `json:"admitted"`
	Degraded   uint64  `json:"degraded"`
	RateDenied uint64  `json:"rate_denied"`
	ConcDenied uint64  `json:"concurrency_denied"`
	Tokens     float64 `json:"tokens"`
}

// Stats snapshots every live tenant, keyed by tenant name, plus the number
// of tenants evicted from the bounded table since start.
func (c *Controller) Stats() (map[string]TenantStats, uint64) {
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]TenantStats, len(c.tenants))
	for name, t := range c.tenants {
		// Refresh the bucket so the reported token count is current, not
		// as-of the tenant's last request.
		rate := c.cfg.Rate * t.class.RateMult
		burst := c.cfg.Burst * t.class.RateMult
		tokens := t.primary.tokens + now.Sub(t.primary.last).Seconds()*rate
		if tokens > burst {
			tokens = burst
		}
		out[name] = TenantStats{
			Class:      t.class.Name,
			InFlight:   t.inflight,
			Admitted:   t.admitted,
			Degraded:   t.degraded,
			RateDenied: t.rateDenied,
			ConcDenied: t.concDenied,
			Tokens:     tokens,
		}
	}
	return out, c.evicted
}

// ParseTenantClasses parses a flag-style "tenant=class,tenant=class" spec.
func ParseTenantClasses(spec string) (map[string]string, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[string]string{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, class, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("qos: bad tenant spec %q (want tenant=class)", part)
		}
		if _, err := ParseClass(class); err != nil {
			return nil, err
		}
		out[name] = strings.ToLower(class)
	}
	return out, nil
}

// Tenants lists the configured tenant names in sorted order (for logs).
func (c *Controller) Tenants() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.tenants))
	for n := range c.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
