package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"merlin/internal/core"
	"merlin/internal/degrade"
	"merlin/internal/faultinject"
	"merlin/internal/flows"
	"merlin/internal/gossip"
	"merlin/internal/journal"
	"merlin/internal/trace"
)

// Config sizes the service. Zero values take the documented defaults.
type Config struct {
	// Workers is the pool size; default GOMAXPROCS. Each worker runs one
	// job at a time on its own engines, so the pool as a whole respects
	// core.Engine's one-engine-per-goroutine contract.
	Workers int
	// QueueDepth bounds the job queue; default 4×Workers. A full queue
	// rejects with ErrQueueFull (HTTP 429) instead of buffering unboundedly.
	QueueDepth int
	// CacheSize is the result-cache capacity in entries; default 256,
	// negative disables caching.
	CacheSize int
	// EngineCacheSize is each worker's engine LRU capacity; default 4,
	// negative disables engine reuse.
	EngineCacheSize int
	// DefaultTimeout caps a request's compute time when the request does
	// not set timeout_ms; default 60s, negative disables the default cap.
	DefaultTimeout time.Duration
	// MaxSinks rejects nets larger than this (the DPs are cubic and worse);
	// default 64, negative disables the limit.
	MaxSinks int
	// DefaultMaxSolutions is the server-wide default resource budget: the
	// retained-solution cap applied to every request that does not carry a
	// budget of its own (see core.Budget.MaxSolutions — it bounds the DP's
	// dominant memory term). Default 4,000,000; negative disables the
	// default so unbudgeted requests run unbounded.
	DefaultMaxSolutions int
	// MaxSolutionsCap is the hard per-request ceiling: any request budget
	// above it (or a disabled default) is clamped down to it. Default
	// 8,000,000; negative disables the cap.
	MaxSolutionsCap int

	// JournalDir enables durability (NewDurable only): the write-ahead log
	// lives in JournalDir/wal and the checksummed result store in
	// JournalDir/store. New ignores it.
	JournalDir string
	// Fsync is the journal's fsync policy: "always" (the default — an
	// acknowledged job is on disk), "interval" (group fsync on a timer) or
	// "never" (OS page cache only).
	Fsync string
	// FsyncInterval is the group-fsync cadence under Fsync="interval";
	// default per internal/journal (50ms).
	FsyncInterval time.Duration
	// SnapshotEvery compacts the journal after this many terminal job
	// records; default 256, negative disables compaction.
	SnapshotEvery int
	// MaxJobs bounds the async job table; default 4096. When full, the
	// oldest finished job is evicted; if every job is live, submissions are
	// rejected like a full queue.
	MaxJobs int

	// BrownoutInterval is how often the overload controller samples queue
	// utilization and per-tier latency; default 100ms, negative disables the
	// controller entirely (requests then degrade only reactively, on their
	// own budget exhaustion).
	BrownoutInterval time.Duration
	// BrownoutHighWater is the queue-utilization fraction at which the
	// controller shifts admission one ladder tier down; default 0.75.
	BrownoutHighWater float64
	// BrownoutLowWater is the utilization fraction below which a sample
	// counts as calm; default 0.25.
	BrownoutLowWater float64
	// BrownoutCooldown is how many consecutive calm samples recover one
	// tier back up; default 5. Raising is immediate, lowering is damped, so
	// oscillating load cannot flap the serving tier per sample.
	BrownoutCooldown int
	// BrownoutMaxDrain is the estimated queue-drain time (depth × current-
	// tier latency EWMA / workers) above which the controller degrades even
	// below the high-water mark; default 2s.
	BrownoutMaxDrain time.Duration

	// TraceRing is how many completed traces the in-memory ring retains for
	// GET /v1/trace/{id}; default 512, negative disables tracing entirely
	// (requests then pay only internal/trace's nil fast path — one context
	// lookup per instrumentation point).
	TraceRing int
	// TraceSlow is the slow-trace threshold: a trace whose root span ran at
	// least this long is always retained, regardless of sampling; default
	// 250ms, negative disables the exemption.
	TraceSlow time.Duration
	// TraceSampleN keeps one in N traces below the slow threshold; default 1
	// (keep everything — retention is bounded by the ring either way; raise
	// it when stream subscribers or trace serialization show up in profiles).
	TraceSampleN int

	// GossipSelf, when non-empty, joins this backend to the fleet health
	// gossip mesh under this name (its own base URL), mounts POST
	// /v1/gossip, and publishes liveness, readiness, queue utilization,
	// brownout tier and store high-water digests every GossipInterval.
	GossipSelf string
	// GossipPeers seeds the mesh: typically the sibling backends and the
	// routers (any one live seed is enough to learn the rest).
	GossipPeers []string
	// GossipInterval is the gossip tick; default per internal/gossip (200ms).
	GossipInterval time.Duration

	// ReplicaRing, when set (NewDurable only), enables result replication
	// and peer-warming: it returns the preference-ordered backend URL list
	// for a store key. cmd/merlind injects the router tier's consistent-hash
	// ring (router.NewRing over the same backend list), so every node
	// computes the same replica set without coordination; the dependency is
	// injected because router imports service, never the reverse.
	// ReplicaSelf must then name this backend's own URL.
	ReplicaRing func(key string) []string
	ReplicaSelf string
	// ReplicaCount is how many ring successors receive a copy of each
	// result; default 2.
	ReplicaCount int

	// LeaseTTL is the advisory expiry stamped on lease records in the WAL.
	// Operationally a lease stays live while its owner's gossip state is not
	// Dead — the owner renews by existing, at gossip cadence, not by
	// journaling. Default 3s.
	LeaseTTL time.Duration
	// TakeoverInterval is how often this node sweeps gossip evidence for
	// orphaned jobs — acknowledged, unfinished, owner dead or drained — that
	// it should claim; default 500ms, negative disables takeover. Takeover
	// needs a journal, a replica ring and gossip; without all three the
	// sweep never starts.
	TakeoverInterval time.Duration
	// MaxWallCap, when positive, clamps every request's effective wall-time
	// budget — its own budget.max_wall_ms or a client deadline from the
	// X-Merlin-Deadline-Ms header — to at most this. Default 0: no cap.
	MaxWallCap time.Duration

	// onJobStart, when set (tests only), runs as a worker picks up a job —
	// it lets shutdown and queue tests pin a job as provably in flight.
	onJobStart func()
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.EngineCacheSize == 0 {
		c.EngineCacheSize = 4
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxSinks == 0 {
		c.MaxSinks = 64
	}
	if c.DefaultMaxSolutions == 0 {
		c.DefaultMaxSolutions = 4_000_000
	}
	if c.MaxSolutionsCap == 0 {
		c.MaxSolutionsCap = 8_000_000
	}
	if c.BrownoutInterval == 0 {
		c.BrownoutInterval = 100 * time.Millisecond
	}
	if c.BrownoutHighWater == 0 {
		c.BrownoutHighWater = 0.75
	}
	if c.BrownoutLowWater == 0 {
		c.BrownoutLowWater = 0.25
	}
	if c.BrownoutCooldown == 0 {
		c.BrownoutCooldown = 5
	}
	if c.BrownoutMaxDrain == 0 {
		c.BrownoutMaxDrain = 2 * time.Second
	}
	if c.TraceRing == 0 {
		c.TraceRing = 512
	}
	if c.TraceSlow == 0 {
		c.TraceSlow = 250 * time.Millisecond
	}
	if c.TraceSampleN == 0 {
		c.TraceSampleN = 1
	}
	if c.Fsync == "" {
		c.Fsync = string(journal.FsyncAlways)
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 256
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 4096
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.TakeoverInterval == 0 {
		c.TakeoverInterval = 500 * time.Millisecond
	}
	return c
}

// Service errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull means the bounded job queue rejected the request (429,
	// with a Retry-After hint derived from the current queue depth).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrShuttingDown means the server is draining and accepts no new work (503).
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrInternal wraps a panic contained by the worker guard or the handler
	// middleware (500). The request that triggered it fails; the worker and
	// the process stay up. core.ErrInternal (a panic contained at the engine
	// boundary) maps to the same 500.
	ErrInternal = errors.New("service: internal error")
)

type jobResult struct {
	resp *RouteResponse
	err  error
}

type job struct {
	ctx   context.Context
	req   *RouteRequest
	prof  flows.Profile
	flow  flows.ID
	floor degrade.Tier   // lowest ladder tier the request admits
	key   string         // result-cache key (tier suffix applied at Put)
	eng   string         // engine-cache key (tier suffix applied per rung)
	done  chan jobResult // buffered(1): the worker never blocks on delivery
	qspan *trace.Span    // "queue.wait": opened at submit, ended at dequeue
}

// Server is the routing service: a bounded job queue feeding a fixed worker
// pool, fronted by a result cache. Create with New, serve via Handler or the
// in-process Route/Batch, stop with Shutdown.
type Server struct {
	cfg    Config
	jobs   chan *job
	cache  *lruCache
	met    *metrics
	traces *trace.Collector // nil when Config.TraceRing < 0
	start  time.Time

	mu        sync.Mutex // guards draining against concurrent submits
	draining  bool
	inflight  sync.WaitGroup // accepted jobs not yet finished
	workers   sync.WaitGroup
	closeJobs sync.Once

	brown     *degrade.Hysteresis
	stopBrown chan struct{}
	stopOnce  sync.Once

	// Durability (nil/zero on servers built by New; see NewDurable).
	jour  *journal.Journal // write-ahead log of job accept/terminal records
	store *journal.Store   // checksummed persistent result store
	audit *trace.AuditLog  // hash-chained job-lifecycle audit log
	// jourDown latches after a failed WAL append and clears on the next
	// success; readiness (not liveness) keys off it — a server that cannot
	// acknowledge jobs durably should stop receiving new work, not restart.
	jourDown atomic.Bool

	// Fleet participation (nil when not configured).
	gossip *gossip.Node        // health gossip node (Config.GossipSelf)
	repl   *journal.Replicator // result replication (Config.ReplicaRing)

	jobsMu        sync.Mutex // guards the async job table below
	jobsByID      map[string]*jobEntry
	jobsByIdem    map[string]*jobEntry
	jobOrder      []string       // insertion order, for bounded eviction
	termSinceSnap int            // terminal records since the last snapshot
	runners       sync.WaitGroup // async job runner goroutines
	replayStats   journal.ReplayStats

	// Lease/failover state (guarded by jobsMu; see lease.go).
	leaseHW  uint64            // highest lease term granted or learned here
	jobTerms map[string]uint64 // job id → highest fencing term learned
	myClaims map[string]uint64 // takeover claims this node advertises
}

// New starts a server's worker pool and returns it ready to serve. The
// server is memory-only: async jobs and cached results die with the process.
// For crash-safe operation use NewDurable.
func New(cfg Config) *Server {
	s := newServer(cfg.withDefaults())
	s.startWorkers()
	return s
}

// NewDurable is New plus durability: it opens the write-ahead log under
// JournalDir/wal and the checksummed result store under JournalDir/store,
// replays the journal (truncating any torn tail from a crash), re-enqueues
// every acknowledged-but-unfinished job (at-least-once, deduplicated by
// idempotency key), and returns with the persistent store warming the result
// cache on demand. It fails rather than serve without the durability it was
// asked for.
func NewDurable(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.JournalDir == "" {
		return nil, errors.New("service: NewDurable requires Config.JournalDir")
	}
	pol, err := journal.ParseFsyncPolicy(cfg.Fsync)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	store, err := journal.OpenStore(filepath.Join(cfg.JournalDir, "store"))
	if err != nil {
		return nil, fmt.Errorf("service: opening result store: %w", err)
	}
	jour, err := journal.Open(filepath.Join(cfg.JournalDir, "wal"), journal.Options{
		Fsync:         pol,
		FsyncInterval: cfg.FsyncInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("service: opening journal: %w", err)
	}
	// The audit chain lives beside the WAL: job lifecycle events are part of
	// the durability story (tamper-evident history of what was acknowledged
	// and what became of it), so a durable server that cannot audit refuses
	// to start, same as one that cannot journal.
	audit, err := trace.OpenAudit(filepath.Join(cfg.JournalDir, "audit"))
	if err != nil {
		_ = jour.Close()
		return nil, fmt.Errorf("service: opening audit log: %w", err)
	}
	s := newServer(cfg)
	s.jour, s.store, s.audit = jour, store, audit
	if cfg.ReplicaRing != nil {
		repl, rerr := journal.NewReplicator(journal.ReplicatorConfig{
			Self:     cfg.ReplicaSelf,
			Ring:     cfg.ReplicaRing,
			Replicas: cfg.ReplicaCount,
		})
		if rerr != nil {
			_ = jour.Close()
			_ = audit.Close()
			return nil, fmt.Errorf("service: replication: %w", rerr)
		}
		s.repl = repl
		repl.Start()
	}
	pending, err := s.recoverJobs()
	if err != nil {
		_ = jour.Close()
		_ = audit.Close()
		return nil, fmt.Errorf("service: journal replay: %w", err)
	}
	s.startWorkers()
	if n := len(pending); n > 0 {
		s.met.add("jobs.recovered", uint64(n))
		log.Printf("service: recovery re-enqueued %d acknowledged job(s)", n)
	}
	for _, e := range pending {
		s.auditEvent("recovered", e.id, nil)
		s.spawnJob(e)
	}
	return s, nil
}

// newServer builds the server without starting any goroutines.
func newServer(cfg Config) *Server {
	s := &Server{
		cfg:        cfg,
		jobs:       make(chan *job, cfg.QueueDepth),
		cache:      newLRU(cfg.CacheSize),
		met:        newMetrics(),
		traces:     trace.NewCollector(cfg.TraceRing, cfg.TraceSlow, cfg.TraceSampleN),
		start:      time.Now(),
		jobsByID:   make(map[string]*jobEntry),
		jobsByIdem: make(map[string]*jobEntry),
		jobTerms:   make(map[string]uint64),
		myClaims:   make(map[string]uint64),
	}
	s.brown = degrade.NewHysteresis(cfg.BrownoutCooldown)
	s.stopBrown = make(chan struct{})
	if cfg.GossipSelf != "" {
		gn, err := gossip.New(gossip.Config{
			Self:      cfg.GossipSelf,
			Role:      gossip.RoleBackend,
			Peers:     cfg.GossipPeers,
			Interval:  cfg.GossipInterval,
			Transport: gossip.HTTPTransport(&http.Client{Timeout: 2 * time.Second}),
		})
		if err != nil {
			// Unreachable with a non-empty Self, but a backend must serve
			// even if the mesh cannot form.
			log.Printf("service: gossip disabled: %v", err)
		} else {
			s.gossip = gn
		}
	}
	return s
}

// startWorkers launches the pool and the brownout controller.
func (s *Server) startWorkers() {
	s.workers.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	if s.cfg.BrownoutInterval > 0 {
		s.goGuard("brownout", s.brownoutLoop)
	}
	if s.gossip != nil {
		s.publishGossip() // first digest before the first tick
		s.gossip.Start()
		s.goGuard("gossip-publish", s.gossipPublishLoop)
	}
	if s.canTakeover() {
		s.goGuard("lease-takeover", s.takeoverLoop)
	}
}

// gossipPublishLoop refreshes the health payload the gossip node advertises.
// The node bumps its seq every time it speaks; this loop just keeps the
// payload current at the same cadence.
func (s *Server) gossipPublishLoop() {
	interval := s.cfg.GossipInterval
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopBrown:
			return
		case <-t.C:
			s.publishGossip()
		}
	}
}

// publishGossip snapshots this backend's health into its gossip digest:
// readiness (with the truthful reason), queue utilization, the brownout
// admission tier, the result store's write high-water mark, and — on durable
// nodes — the lease high-water mark and any takeover claims. The lease
// advertisement is the cheap renewal: owners renew every lease they hold by
// gossiping at all, with zero journal writes.
func (s *Server) publishGossip() {
	ready, reason := s.Ready()
	util := float64(len(s.jobs)) / float64(s.cfg.QueueDepth)
	var hw uint64
	if s.store != nil {
		hw = s.store.WriteCount()
	}
	s.gossip.SetLocal(ready, reason, util, uint32(s.brownoutTier()), hw)
	s.publishLease()
}

// Route runs one request through the cache and the pool. It blocks until the
// result is ready, the context is done, or the request is rejected
// (ErrBadRequest / ErrQueueFull / ErrShuttingDown).
//
// When tracing is enabled (Config.TraceRing >= 0) every Route call is a
// trace: a "route" root span over the whole call, with child spans for the
// cache probe, the queue wait, each ladder rung, the DP phases inside it,
// and any journal/store writes. The trace id is returned on the response
// (trace_id) and the trace is retrievable via GET /v1/trace/{id} until the
// ring evicts it.
func (s *Server) Route(ctx context.Context, req *RouteRequest) (*RouteResponse, error) {
	ctx, tr, root := s.traces.Start(ctx, "route")
	if t := TenantFromContext(ctx); t != "" {
		s.met.inc("requests.tenant_labeled")
		if root != nil {
			root.SetAttr("tenant", t)
		}
	}
	resp, err := s.routeTraced(ctx, req)
	if root != nil {
		if req.Net != nil {
			root.SetAttr("net", req.Net.Name)
		}
		if err != nil {
			root.SetAttr("error", err.Error())
		} else {
			root.SetAttr("tier", resp.Tier)
			// The response owns its trace id; cached responses are copied
			// before this write, so the cache never aliases a trace id.
			resp.TraceID = tr.ID()
		}
	}
	s.traces.Finish(tr, root)
	return resp, err
}

// routeTraced is Route's body; ctx may carry the trace opened above.
func (s *Server) routeTraced(ctx context.Context, req *RouteRequest) (*RouteResponse, error) {
	prof, fl, err := s.prepare(req)
	if err != nil {
		return nil, err
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	} else if s.cfg.DefaultTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
		defer cancel()
	}
	floor, err := ladderFloor(req, fl)
	if err != nil {
		return nil, err
	}
	key, eng := cacheKeys(req, fl, prof)
	if !req.NoCache {
		_, csp := trace.StartSpan(ctx, "cache.lookup")
		if v, ok := s.cacheLookup(key, fl, floor); ok {
			s.met.inc("cache.hits")
			csp.SetAttr("result", "hit")
			csp.End()
			hit := *v // shallow copy; cached responses are immutable
			hit.Cached = true
			return &hit, nil
		}
		// LRU miss: a checksum-verified entry in the persistent store (a
		// previous process's work) serves and re-warms the cache.
		if v, ok := s.storeLookup(ctx, key, fl, floor); ok {
			s.met.inc("cache.store_warms")
			csp.SetAttr("result", "store_warm")
			csp.End()
			hit := *v
			hit.Cached = true
			return &hit, nil
		}
		s.met.inc("cache.misses")
		csp.SetAttr("result", "miss")
		csp.End()
	}
	// queue.wait spans admission to dequeue; the worker ends it the moment
	// it picks the job up (runJob), so its duration is pure queue time.
	_, qspan := trace.StartSpan(ctx, "queue.wait")
	j := &job{ctx: ctx, req: req, prof: prof, flow: fl, floor: floor, key: key, eng: eng, done: make(chan jobResult, 1), qspan: qspan}
	if err := s.submit(j); err != nil {
		qspan.SetAttr("rejected", "true")
		qspan.End()
		return nil, err
	}
	select {
	case r := <-j.done:
		if r.err != nil {
			return nil, r.err
		}
		if !req.NoCache {
			// The tier that actually served is part of the result identity:
			// a degraded answer must never satisfy a full-tier request.
			tk := tieredKey(key, r.resp.Tier)
			s.cache.Put(tk, r.resp)
			s.persistResult(ctx, tk, r.resp)
		}
		// Copy before the caller (Route) stamps a trace id on it: the cached
		// object must stay immutable once Put makes it shared.
		out := *r.resp
		return &out, nil
	case <-ctx.Done():
		// The worker sees the same ctx and aborts between DP sub-problems;
		// done is buffered so its late delivery is dropped harmlessly.
		return nil, fmt.Errorf("service: request aborted: %w", ctx.Err())
	}
}

// cacheLookup probes the result cache tier by tier, best first: a cached
// full-tier answer satisfies any request, a cached degraded answer only
// satisfies requests whose floor admits its tier. Flows I and II have no
// ladder and a single (empty-tier) slot.
func (s *Server) cacheLookup(key string, fl flows.ID, floor degrade.Tier) (*RouteResponse, bool) {
	if fl != flows.FlowIII {
		if v, ok := s.cache.Get(tieredKey(key, "")); ok {
			return v.(*RouteResponse), true
		}
		return nil, false
	}
	for t := degrade.TierFull; t <= floor; t++ {
		if v, ok := s.cache.Get(tieredKey(key, t.String())); ok {
			return v.(*RouteResponse), true
		}
	}
	return nil, false
}

// Batch runs every net of the request through the pool concurrently and
// returns per-net outcomes in input order.
func (s *Server) Batch(ctx context.Context, breq *BatchRequest) []BatchItem {
	items := make([]BatchItem, len(breq.Nets))
	var wg sync.WaitGroup
	for i, n := range breq.Nets {
		i, rr := i, breq.routeRequest(n)
		wg.Add(1)
		s.goGuard("batch", func() {
			defer wg.Done()
			items[i] = s.routeItem(ctx, i, rr)
		})
	}
	wg.Wait()
	return items
}

// BatchStream is Batch in completion order: items are sent on the returned
// channel as each net finishes, and the channel closes when all are done.
func (s *Server) BatchStream(ctx context.Context, breq *BatchRequest) <-chan BatchItem {
	out := make(chan BatchItem)
	var wg sync.WaitGroup
	for i, n := range breq.Nets {
		i, rr := i, breq.routeRequest(n)
		wg.Add(1)
		s.goGuard("batch", func() {
			defer wg.Done()
			out <- s.routeItem(ctx, i, rr)
		})
	}
	s.goGuard("batch.close", func() {
		wg.Wait()
		close(out)
	})
	return out
}

// routeItem is panic-safe: a panic while routing one batch item becomes that
// item's error, not a zero-valued item (the goGuard above it would keep the
// process alive but could not attribute the failure to the right index).
func (s *Server) routeItem(ctx context.Context, i int, rr *RouteRequest) (item BatchItem) {
	defer func() {
		if r := recover(); r != nil {
			s.met.inc("panics")
			log.Printf("service: contained batch-item panic: %v\n%s", r, debug.Stack())
			item = BatchItem{Index: i, Error: fmt.Errorf("%w: contained batch panic: %v", ErrInternal, r).Error()}
		}
	}()
	resp, err := s.Route(ctx, rr)
	if err != nil {
		return BatchItem{Index: i, Error: err.Error()}
	}
	return BatchItem{Index: i, Result: resp}
}

// goGuard spawns fn on its own goroutine behind the shared panic guard: an
// unguarded goroutine panic would kill the whole process, bypassing every
// containment layer PR 2 built. All service goroutines that are not worker
// bodies (those have runJobGuarded) go through here.
func (s *Server) goGuard(name string, fn func()) {
	go func() {
		defer s.guardPanic(name)
		fn()
	}()
}

// guardPanic is the last-resort recover for service goroutines: it records
// the stack, bumps the panics metric, and lets the goroutine die quietly
// instead of taking the process with it. Deferred directly by goGuard.
func (s *Server) guardPanic(name string) {
	r := recover()
	if r == nil {
		return
	}
	s.met.inc("panics")
	log.Printf("service: contained %s goroutine panic: %v\n%s", name, r, debug.Stack())
}

// submit enqueues a job unless the server is draining or the queue is full.
func (s *Server) submit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrShuttingDown
	}
	s.inflight.Add(1)
	select {
	case s.jobs <- j:
		return nil
	default:
		s.inflight.Done()
		s.met.inc("jobs.rejected")
		return ErrQueueFull
	}
}

// Shutdown drains the service: new submissions are refused immediately,
// queued and running jobs run to completion (or their own deadlines), then
// the workers exit. It returns ctx.Err() if the drain outlives ctx; calling
// it again is safe and waits for the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	if s.gossip != nil {
		// The publish loop is about to stop; push one last truthful digest so
		// remaining gossip rounds advertise the drain to the fleet.
		s.publishGossip()
	}
	s.stopOnce.Do(func() { close(s.stopBrown) })
	drained := make(chan struct{})
	s.goGuard("drain", func() {
		s.inflight.Wait()
		close(drained)
	})
	select {
	case <-drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.closeJobs.Do(func() { close(s.jobs) })
	s.workers.Wait()
	// Async runners have either finished or parked their jobs back to queued
	// (the WAL carries those to the next boot). Wait for them before the
	// drain handoff below, so released leases cover exactly the jobs that
	// will not finish here.
	s.runners.Wait()
	// Graceful-drain lease handoff: journal a release for every job this
	// node still owns unfinished and tell the ring, so successors claim them
	// now instead of waiting out a death verdict that never comes (a drained
	// node gossips "draining", not "dead").
	s.releaseLeasesForDrain()
	if s.repl != nil {
		// Bounded courtesy: give release manifests and final result pushes a
		// moment to reach the ring. Replication is lossy by design — a slow
		// peer must not hold shutdown hostage.
		deadline := time.Now().Add(time.Second)
		for s.repl.Pending() > 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		s.repl.Stop()
	}
	if s.gossip != nil {
		s.gossip.Stop()
	}
	// Closing the collector ends any /v1/trace/stream handlers (their
	// subscriber channels close) so the HTTP server's own shutdown is not
	// held open by firehose readers.
	s.traces.Close()
	if s.jour != nil {
		s.jobsMu.Lock()
		s.snapshotLocked()
		s.jobsMu.Unlock()
		if err := s.jour.Close(); err != nil {
			log.Printf("service: journal close: %v", err)
		}
	}
	if err := s.audit.Close(); err != nil {
		log.Printf("service: audit close: %v", err)
	}
	return nil
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Ready reports whether the server should receive new work, and when not,
// why ("draining" or "journal_unavailable"). It is the /v1/readyz answer and
// the signal routers eject backends on — deliberately separate from
// liveness: a draining server is healthy (don't restart it) but not ready
// (stop routing to it), and a server whose WAL cannot acknowledge jobs is
// not ready either, while restarting it would not help the disk.
func (s *Server) Ready() (bool, string) {
	if s.Draining() {
		return false, "draining"
	}
	if s.jour != nil && s.jourDown.Load() {
		return false, "journal_unavailable"
	}
	return true, ""
}

// worker is one pool goroutine: it owns its engine cache outright, which is
// what makes engine reuse race-free (engines are not goroutine-safe; see
// core.NewEngine).
func (s *Server) worker() {
	defer s.workers.Done()
	engines := newLRU(s.cfg.EngineCacheSize)
	for j := range s.jobs {
		s.runJobGuarded(j, engines)
		s.inflight.Done()
	}
}

// runJobGuarded is the worker's panic boundary: a panic anywhere in a job —
// the engine boundary in core already contains DP panics, so this catches
// everything outside it (flows I/II, response building, injected faults) —
// fails only that request with ErrInternal (a structured 500), records the
// stack, bumps the panics metric, evicts the implicated engine, and leaves
// the worker alive for the next job.
func (s *Server) runJobGuarded(j *job, engines *lruCache) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.met.inc("panics")
		s.met.inc("jobs.failed")
		log.Printf("service: contained worker panic: %v\n%s", r, debug.Stack())
		// Engines are cached per (job, tier); any of them may be the one the
		// panic corrupted, so evict them all.
		for _, t := range degrade.Tiers() {
			engines.Delete(tieredKey(j.eng, t.String()))
		}
		select {
		// done is buffered(1) and runJob sends at most once, so this send
		// only fills an empty buffer; the default arm is pure paranoia.
		case j.done <- jobResult{err: fmt.Errorf("%w: contained worker panic: %v", ErrInternal, r)}:
		default:
		}
	}()
	s.runJob(j, engines)
}

func (s *Server) runJob(j *job, engines *lruCache) {
	j.qspan.End() // dequeue: queue.wait measured admission to here
	if s.cfg.onJobStart != nil {
		s.cfg.onJobStart()
	}
	if err := faultinject.Fire(faultinject.SiteServiceWorker); err != nil {
		s.met.inc("jobs.failed")
		j.done <- jobResult{err: err}
		return
	}
	if err := j.ctx.Err(); err != nil {
		// Canceled while queued: don't burn a worker on a dead request.
		s.met.inc("jobs.canceled")
		j.done <- jobResult{err: err}
		return
	}
	start := time.Now()
	var resp *RouteResponse
	var err error
	if j.flow == flows.FlowIII {
		// All Flow III work goes through the degradation ladder. An
		// undegradable request (floor full) is a plain Flow III run; a
		// degradable one starts at the brownout controller's serving tier
		// and falls further on per-rung budget exhaustion or panic. A
		// checkpoint-resumed job (async failover) starts no higher than its
		// last checkpointed rung; the ladder clamps either start to the
		// request's floor, so resumption never lies about degradability.
		startTier := s.brownoutTier()
		if rt, ok := resumeRungFrom(j.ctx); ok && rt > startTier {
			startTier = rt
		}
		lres, lerr := degrade.Ladder{}.Solve(j.ctx, degrade.Request{
			Net:     j.req.Net,
			Profile: j.prof,
			Start:   startTier,
			Floor:   j.floor,
			EngineFor: func(t degrade.Tier, p flows.Profile) *core.Engine {
				// Entering a rung is the checkpoint moment for async jobs:
				// progress is journaled before the rung burns any compute.
				if ck := checkpointerFrom(j.ctx); ck != nil {
					ck(t)
				}
				ek := tieredKey(j.eng, t.String())
				if v, ok := engines.Get(ek); ok {
					s.met.inc("engine_cache.hits")
					return v.(*core.Engine)
				}
				en := flows.NewEngineIII(j.req.Net, p)
				s.met.inc("engine_cache.misses")
				engines.Put(ek, en)
				return en
			},
		})
		err = lerr
		if lerr == nil {
			resp = buildResponse(j.req, j.flow, lres.Result)
			resp.Tier = lres.Tier.String()
			resp.Degraded = lres.Degraded
			resp.Quality = lres.Quality
			for _, a := range lres.Attempts {
				resp.TiersAttempted = append(resp.TiersAttempted, a.Tier.String())
			}
			tierName := lres.Tier.String()
			s.met.inc("tier.served." + tierName)
			if lres.Degraded {
				s.met.inc("jobs.degraded")
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			s.met.observe("tier_"+tierName, ms)
			s.met.observeEWMA("tier_"+tierName, ms)
		}
	} else {
		var res flows.Result
		res, err = flows.RunCtx(j.ctx, j.flow, j.req.Net, j.prof)
		if err == nil {
			resp = buildResponse(j.req, j.flow, res)
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.met.inc("jobs.canceled")
		} else {
			s.met.inc("jobs.failed")
		}
		j.done <- jobResult{err: err}
		return
	}
	s.met.inc("jobs.completed")
	s.met.observe("flow_"+flowLabel(j.flow), float64(time.Since(start).Microseconds())/1000)
	j.done <- jobResult{resp: resp}
}

// Stats is the /v1/stats document.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Build identifies what is serving: version, Go toolchain, VCS revision.
	Build         BuildInfo `json:"build"`
	Workers       int       `json:"workers"`
	QueueDepth    int       `json:"queue_depth"`
	QueueCapacity int       `json:"queue_capacity"`
	Draining      bool      `json:"draining"`
	// Ready mirrors /v1/readyz; NotReadyReason is empty when Ready.
	Ready          bool                      `json:"ready"`
	NotReadyReason string                    `json:"not_ready_reason,omitempty"`
	Counters       map[string]uint64         `json:"counters"`
	Cache          CacheStats                `json:"cache"`
	LatencyMS      map[string]HistogramStats `json:"latency_ms"`
	// TiersServed counts answers per degradation-ladder tier.
	TiersServed map[string]uint64 `json:"tiers_served"`
	// Brownout is the overload controller's state.
	Brownout BrownoutStats `json:"brownout"`
	// Trace reports the trace collector (ring occupancy, sampling, stream
	// subscribers); absent when tracing is disabled (TraceRing < 0).
	Trace *trace.CollectorStats `json:"trace,omitempty"`
	// Durability reports the WAL, the result store and crash recovery;
	// present only on servers created with NewDurable.
	Durability *DurabilityStats `json:"durability,omitempty"`
	// Gossip reports fleet membership as this node sees it; absent when the
	// node is not gossiping.
	Gossip *gossip.Stats `json:"gossip,omitempty"`
}

// DurabilityStats is the /v1/stats durability section.
type DurabilityStats struct {
	// Journal counters.
	JournalAppends   uint64 `json:"journal_appends"`
	JournalFsyncs    uint64 `json:"journal_fsyncs"`
	JournalSegments  int    `json:"journal_segments"`
	JournalSnapshots uint64 `json:"journal_snapshots"`
	// Result-store counters (quarantined counts checksum failures moved
	// aside — corrupt bytes are never served).
	StoreEntries     int    `json:"store_entries"`
	StoreQuarantined uint64 `json:"store_quarantined"`
	StoreHits        uint64 `json:"store_hits"`
	StoreWrites      uint64 `json:"store_writes"`
	// Last boot's replay.
	ReplayRecords         int   `json:"replay_records"`
	ReplaySnapshotUsed    bool  `json:"replay_snapshot_used"`
	ReplayTruncatedBytes  int64 `json:"replay_truncated_bytes"`
	ReplayCorruptSegments int   `json:"replay_corrupt_segments"`
	// JobsTracked is the async job table's current size.
	JobsTracked int `json:"jobs_tracked"`
	// Replication reports the async replica push/fetch machinery; absent
	// when no replica ring is configured.
	Replication *journal.ReplicationStats `json:"replication,omitempty"`
	// Leases reports the job-failover machinery: lease high-water mark,
	// held/orphaned counts, takeovers, fencing rejections and checkpoints.
	Leases *LeaseStats `json:"leases,omitempty"`
}

// BrownoutStats reports the overload controller on /v1/stats.
type BrownoutStats struct {
	// Tier is the ladder rung degradable requests are currently admitted
	// at ("full" when not browning out).
	Tier string `json:"tier"`
	// Level is the same as Tier, numerically (0 = full).
	Level int `json:"level"`
	// Raised and Lowered count state transitions since start.
	Raised  uint64 `json:"raised"`
	Lowered uint64 `json:"lowered"`
}

// CacheStats summarizes the result cache.
type CacheStats struct {
	Size     int     `json:"size"`
	Capacity int     `json:"capacity"`
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
}

// Stats snapshots the registry.
func (s *Server) Stats() Stats {
	counters, hists := s.met.snapshot()
	cs := CacheStats{
		Size:     s.cache.Len(),
		Capacity: s.cfg.CacheSize,
		Hits:     counters["cache.hits"],
		Misses:   counters["cache.misses"],
	}
	if total := cs.Hits + cs.Misses; total > 0 {
		cs.HitRate = float64(cs.Hits) / float64(total)
	}
	tiers := make(map[string]uint64)
	for _, t := range degrade.Tiers() {
		if n := counters["tier.served."+t.String()]; n > 0 {
			tiers[t.String()] = n
		}
	}
	var dur *DurabilityStats
	if s.jour != nil {
		js := s.jour.Stats()
		ss := s.store.Stats()
		s.jobsMu.Lock()
		tracked := len(s.jobOrder)
		rs := s.replayStats
		s.jobsMu.Unlock()
		dur = &DurabilityStats{
			JournalAppends:        js.Appends,
			JournalFsyncs:         js.Fsyncs,
			JournalSegments:       js.Segments,
			JournalSnapshots:      js.Snapshots,
			StoreEntries:          ss.Entries,
			StoreQuarantined:      ss.Quarantined,
			StoreHits:             ss.Hits,
			StoreWrites:           ss.Writes,
			ReplayRecords:         rs.Records,
			ReplaySnapshotUsed:    rs.SnapshotUsed,
			ReplayTruncatedBytes:  rs.TruncatedBytes,
			ReplayCorruptSegments: rs.CorruptSegments,
			JobsTracked:           tracked,
		}
		if s.repl != nil {
			r := s.repl.Stats()
			dur.Replication = &r
		}
		dur.Leases = s.leaseStats(counters)
	}
	var tcs *trace.CollectorStats
	if s.traces != nil {
		c := s.traces.Stats()
		tcs = &c
	}
	bt := s.brownoutTier()
	ready, notReady := s.Ready()
	return Stats{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Build:          buildInfo(),
		Workers:        s.cfg.Workers,
		QueueDepth:     len(s.jobs),
		QueueCapacity:  s.cfg.QueueDepth,
		Draining:       s.Draining(),
		Ready:          ready,
		NotReadyReason: notReady,
		Counters:       counters,
		Cache:          cs,
		LatencyMS:      hists,
		TiersServed:    tiers,
		Brownout: BrownoutStats{
			Tier:    bt.String(),
			Level:   int(bt),
			Raised:  counters["brownout.raised"],
			Lowered: counters["brownout.lowered"],
		},
		Trace:      tcs,
		Durability: dur,
		Gossip:     gossipStats(s.gossip),
	}
}

// gossipStats is nil-safe: a non-gossiping node simply omits the section.
func gossipStats(n *gossip.Node) *gossip.Stats {
	if n == nil {
		return nil
	}
	st := n.Stats()
	return &st
}
