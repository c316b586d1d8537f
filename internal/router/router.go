// Package router is merlin's fleet front tier: it consistent-hashes
// canonical net fingerprints (internal/net/canon.go) onto a replicated ring
// of merlind backends and forwards /v1/route and /v1/jobs with robustness at
// every hop:
//
//   - Drain from gossip: a backend whose gossiped digest says not ready
//     (draining, or its journal is down) gets no new work and no ejection
//     clock; it serves again the moment a newer digest says ready. Without
//     gossip nothing drains a backend.
//   - Circuit breakers: consecutive failed forwards open a per-backend breaker
//     with an exponentially growing ejection timeout (pkg/client's Backoff
//     — the repo's one backoff policy); after the timeout one half-open
//     trial decides between closing and re-opening longer.
//   - Bounded failover: a connection error or 5xx moves the same request to
//     the next ring replica, up to MaxAttempts total tries. 4xx are never
//     retried (they are verdicts about the request). Backend responses are
//     buffered whole before any byte reaches the client, so a backend that
//     dies mid-body fails over too.
//   - Hedged reads: optionally, a /v1/route whose fingerprint was seen
//     recently (cache-likely on its home backend) launches a second attempt
//     at the next replica after HedgeDelay; first answer wins, the loser is
//     canceled.
//   - Per-tenant QoS (internal/qos): token-bucket rate limits and
//     concurrency quotas keyed by X-Merlin-Tenant, with priority classes.
//     An over-rate degradable request is forwarded with allow_degraded set
//     (the backend's ladder serves a cheaper tier) before the router ever
//     answers 429 — a hot tenant degrades itself, not the fleet.
//
// Everything is observable: router.pick / router.forward / router.retry /
// qos.admit spans via internal/trace, per-backend breaker state and
// per-tenant admission counts on /v1/stats, and the fault-injection site
// router.forward for chaos drills.
package router

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"merlin/internal/gossip"
	"merlin/internal/qos"
	"merlin/internal/service"
	"merlin/internal/trace"
	"merlin/pkg/client"
)

// Config sizes a Router. Zero values take the documented defaults.
type Config struct {
	// Backends are the merlind base URLs forming the ring. Required.
	Backends []string
	// Replicas is the virtual-node count per backend; default 64.
	Replicas int

	// FailureThreshold is how many consecutive breaker-visible failures
	// (connection errors, non-503 5xx) open a backend's breaker; default 3.
	FailureThreshold int
	// EjectBase/EjectMax bound the exponential ejection timeout an open
	// breaker waits before its half-open trial; defaults 500ms and 30s.
	EjectBase, EjectMax time.Duration

	// MaxAttempts is the total forward tries per request across replicas
	// (first attempt + failovers); default 3, clamped to the backend count.
	MaxAttempts int

	// HedgeDelay, when positive, enables hedged reads: a /v1/route whose
	// fingerprint is in the recent set (the last hedgeRecent fingerprints)
	// launches a second attempt at the next replica after this delay.
	// Default 0 (disabled).
	HedgeDelay time.Duration

	// QoS configures per-tenant admission; see qos.Config for defaults.
	QoS qos.Config

	// GossipSelf, when non-empty, joins the router to the health gossip
	// mesh under this name (its own base URL) and mounts POST /v1/gossip.
	// Gossip is the router's only drain signal.
	GossipSelf string
	// GossipPeers seeds the mesh (typically the backend URLs — backends
	// gossip too, so one live seed is enough to learn the rest).
	GossipPeers []string
	// GossipInterval is the gossip tick; default gossip.DefaultInterval.
	GossipInterval time.Duration

	// FleetBrownout, when true (requires GossipSelf), aggregates gossiped
	// backend pressure into a fleet load level: level ≥ 1 forwards even
	// within-rate degradable requests with allow_degraded set and sheds
	// bronze overdraft, level ≥ 2 sheds standard overdraft too — the fleet
	// browns out together before any one backend saturates alone.
	FleetBrownout bool
	// FleetHighWater raises the fleet level when mean backend pressure
	// (max of queue utilization and brownout-tier fraction) reaches it;
	// default 0.7. FleetHighWater+FleetStep raises level 2.
	FleetHighWater float64
	// FleetLowWater lowers the level after FleetCooldown consecutive
	// samples below it; defaults 0.3 and 5.
	FleetLowWater float64
	FleetCooldown int

	// TraceRing is how many completed router traces are retained for
	// GET /v1/trace/{id}; default 256, negative disables router tracing.
	TraceRing int

	// now substitutes the clock in tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.EjectBase <= 0 {
		c.EjectBase = 500 * time.Millisecond
	}
	if c.EjectMax <= 0 {
		c.EjectMax = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.TraceRing == 0 {
		c.TraceRing = 256
	}
	if c.FleetHighWater <= 0 {
		c.FleetHighWater = 0.7
	}
	if c.FleetLowWater <= 0 {
		c.FleetLowWater = 0.3
	}
	if c.FleetCooldown <= 0 {
		c.FleetCooldown = 5
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Router is the front tier. Create with New, serve via Handler, stop with
// Close. Safe for concurrent use.
type Router struct {
	cfg      Config
	ring     *ring
	backends map[string]*backend
	order    []string // construction order, for scatter and stats
	pol      breakerPolicy
	adm      *qos.Controller
	hc       *http.Client
	traces   *trace.Collector // nil when TraceRing < 0
	gossip   *gossip.Node     // nil when GossipSelf is empty
	fleet    *fleetBrownout   // nil unless FleetBrownout

	met struct {
		mu sync.Mutex
		m  map[string]uint64
	}

	recentMu sync.Mutex
	recent   map[string]struct{} // fingerprints seen lately (hedge candidates)
	recentQ  []string            // FIFO eviction order

	ownerMu sync.Mutex
	owners  map[string]string // job ID → backend that accepted it
	ownerQ  []string          // FIFO eviction order

	stopLoops chan struct{} // closed by Close; ends the fleet brownout loop
	stopOnce  sync.Once
	loops     sync.WaitGroup
}

// New builds a router over the configured backends. Every backend starts
// admissible; forward outcomes and gossip move it from there.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	r, err := newRing(cfg.Backends, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	adm, err := qos.NewController(cfg.QoS)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:       cfg,
		ring:      r,
		backends:  make(map[string]*backend, len(r.backends)),
		order:     r.backends,
		pol:       breakerPolicy{threshold: cfg.FailureThreshold, backoff: client.NewBackoff(cfg.EjectBase, cfg.EjectMax, 0)},
		adm:       adm,
		hc:        &http.Client{},
		recent:    make(map[string]struct{}),
		owners:    make(map[string]string),
		stopLoops: make(chan struct{}),
	}
	rt.met.m = make(map[string]uint64)
	for _, id := range r.backends {
		rt.backends[id] = &backend{id: id}
	}
	if cfg.TraceRing >= 0 {
		rt.traces = trace.NewCollector(cfg.TraceRing, 0, 1)
	}
	if cfg.GossipSelf != "" {
		gn, err := gossip.New(gossip.Config{
			Self:      cfg.GossipSelf,
			Role:      gossip.RoleRouter,
			Peers:     cfg.GossipPeers,
			Interval:  cfg.GossipInterval,
			Transport: gossip.HTTPTransport(&http.Client{Timeout: 2 * time.Second}),
		})
		if err != nil {
			return nil, err
		}
		rt.gossip = gn
		gn.Start()
	}
	if cfg.FleetBrownout {
		if rt.gossip == nil {
			return nil, fmt.Errorf("router: FleetBrownout requires GossipSelf")
		}
		rt.fleet = newFleetBrownout(cfg)
		rt.loops.Add(1)
		rt.goGuard("fleet-brownout", func() {
			defer rt.loops.Done()
			rt.fleetLoop()
		})
	}
	return rt, nil
}

// Close stops the fleet brownout loop, gossip and the trace collector.
// In-flight forwards finish on their own contexts.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stopLoops) })
	rt.loops.Wait()
	if rt.gossip != nil {
		rt.gossip.Stop()
	}
	if rt.traces != nil {
		rt.traces.Close()
	}
}

// goGuard runs fn on a new goroutine with a panic guard: a panic is logged
// and counted, never allowed to kill the router process.
func (rt *Router) goGuard(name string, fn func()) {
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				rt.inc("panics")
				log.Printf("router: contained panic in %s: %v\n%s", name, rec, debug.Stack())
			}
		}()
		fn()
	}()
}

func (rt *Router) inc(name string) {
	rt.met.mu.Lock()
	rt.met.m[name]++
	rt.met.mu.Unlock()
}

func (rt *Router) counters() map[string]uint64 {
	rt.met.mu.Lock()
	defer rt.met.mu.Unlock()
	out := make(map[string]uint64, len(rt.met.m))
	for k, v := range rt.met.m {
		out[k] = v
	}
	return out
}

// ---- fingerprinting ----

// shardKey fingerprints a route or job for ring placement: the canonical
// encoding of the parsed request's net (order-independent — MERLIN's
// semi-order-independence makes the canon bytes a stable shard key), else,
// when req is nil, a hash of the raw body (the backend will reject the
// request; where it lands doesn't matter).
func shardKey(body []byte, req *service.RouteRequest) (key uint64, fp string) {
	canon := body
	if req != nil {
		canon = req.Net.AppendCanonical(nil)
	}
	sum := sha256.Sum256(canon)
	return binary.BigEndian.Uint64(sum[:8]), fmt.Sprintf("%x", sum[:16])
}

// ---- recent-fingerprint set (hedge candidates) and job owners ----

// hedgeRecent is the recent-fingerprint set's capacity.
const hedgeRecent = 1024

// rememberFingerprint records fp and reports whether it was already present
// (= a repeat request, likely cached on its home backend — hedge-worthy).
func (rt *Router) rememberFingerprint(fp string) (seen bool) {
	rt.recentMu.Lock()
	defer rt.recentMu.Unlock()
	if _, ok := rt.recent[fp]; ok {
		return true
	}
	rt.recent[fp] = struct{}{}
	rt.recentQ = append(rt.recentQ, fp)
	if len(rt.recentQ) > hedgeRecent {
		old := rt.recentQ[0]
		rt.recentQ = rt.recentQ[1:]
		delete(rt.recent, old)
	}
	return false
}

// rememberOwner maps an accepted job ID to the backend that acknowledged
// it, so polls go straight home instead of scattering.
func (rt *Router) rememberOwner(jobID, backendID string) {
	rt.ownerMu.Lock()
	defer rt.ownerMu.Unlock()
	if _, ok := rt.owners[jobID]; ok {
		rt.owners[jobID] = backendID
		return
	}
	rt.owners[jobID] = backendID
	rt.ownerQ = append(rt.ownerQ, jobID)
	if len(rt.ownerQ) > 4096 {
		old := rt.ownerQ[0]
		rt.ownerQ = rt.ownerQ[1:]
		delete(rt.owners, old)
	}
}

func (rt *Router) ownerOf(jobID string) (string, bool) {
	rt.ownerMu.Lock()
	defer rt.ownerMu.Unlock()
	id, ok := rt.owners[jobID]
	return id, ok
}

// claimantOf consults gossip for a takeover claim on jobID: a backend
// advertising that it claimed the job (its original owner died or drained)
// is where the job now lives, so polls try it before scattering. The
// highest-term claim from a live member wins — terms totally order owners,
// so a stale claimant loses to the node that out-termed it.
func (rt *Router) claimantOf(jobID string) (string, bool) {
	if rt.gossip == nil {
		return "", false
	}
	var node string
	var best uint64
	for _, m := range rt.gossip.Members() {
		if m.Digest.State == gossip.Dead {
			continue
		}
		for _, c := range m.Digest.Claims {
			if c.Job == jobID && c.Term > best {
				node, best = m.Digest.Node, c.Term
			}
		}
	}
	return node, node != ""
}

// drained reports whether the backend asked for no new work: the router's
// gossip view holds a digest for it whose Ready is false (it is draining,
// or its journal is down). Where there is no digest — the router or the
// backend does not gossip — nothing drains a backend, and its 503s only
// fail each request over.
func (rt *Router) drained(b *backend) bool {
	if rt.gossip == nil {
		return false
	}
	ev, ok := rt.gossip.Evidence(b.id)
	return ok && !ev.Digest.Ready
}

// admissible is the per-attempt gate: the backend is not drained and its
// breaker admits a request. Drain is checked first because the breaker may
// hand out its half-open trial ticket.
func (rt *Router) admissible(b *backend) bool {
	return !rt.drained(b) && b.admissible(rt.cfg.now())
}

// usable is admissible without taking a trial ticket (stats, readyz and the
// hedge pair use it).
func (rt *Router) usable(b *backend, now time.Time) bool {
	return !rt.drained(b) && b.usable(now)
}

// candidates returns the ring's replica order for key with each backend's
// live state attached; the caller filters admissibility per attempt (state
// can change between attempts).
func (rt *Router) candidates(key uint64) []*backend {
	ids := rt.ring.pick(key)
	out := make([]*backend, 0, len(ids))
	for _, id := range ids {
		out = append(out, rt.backends[id])
	}
	return out
}

// Stats is the router's /v1/stats document.
type Stats struct {
	Backends map[string]BackendStats `json:"backends"`
	// ReadyBackends counts backends currently accepting work.
	ReadyBackends int `json:"ready_backends"`
	// Ring geometry.
	RingBackends int `json:"ring_backends"`
	RingReplicas int `json:"ring_replicas"`
	// Counters: forward attempts, retries, hedges, QoS decisions.
	Counters map[string]uint64 `json:"counters"`
	// Tenants is the per-tenant QoS table; TenantsEvicted counts bounded-
	// table evictions.
	Tenants        map[string]qos.TenantStats `json:"tenants"`
	TenantsEvicted uint64                     `json:"tenants_evicted"`
	// Trace reports the router's own trace collector, when enabled.
	Trace *trace.CollectorStats `json:"trace,omitempty"`
	// Gossip reports the membership view, when the router gossips.
	Gossip *gossip.Stats `json:"gossip,omitempty"`
	// Fleet reports the fleet brownout controller, when enabled.
	Fleet *FleetStats `json:"fleet,omitempty"`
}

// Stats snapshots the router.
func (rt *Router) Stats() Stats {
	now := rt.cfg.now()
	st := Stats{
		Backends:     make(map[string]BackendStats, len(rt.backends)),
		RingBackends: len(rt.order),
		RingReplicas: rt.cfg.Replicas,
		Counters:     rt.counters(),
	}
	for id, b := range rt.backends {
		bs := b.stats()
		bs.Drained = rt.drained(b)
		st.Backends[id] = bs
		if rt.usable(b, now) {
			st.ReadyBackends++
		}
	}
	st.Tenants, st.TenantsEvicted = rt.adm.Stats()
	if rt.traces != nil {
		c := rt.traces.Stats()
		st.Trace = &c
	}
	if rt.gossip != nil {
		g := rt.gossip.Stats()
		st.Gossip = &g
	}
	if rt.fleet != nil {
		f := rt.fleet.stats()
		st.Fleet = &f
	}
	return st
}

// usable reports whether the breaker would admit a request right now,
// without consuming a half-open trial ticket.
func (b *backend) usable(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return true
	case stateOpen:
		return !now.Before(b.openUntil)
	case stateHalfOpen:
		return true
	}
	return false
}
