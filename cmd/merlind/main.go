// Command merlind serves the repository's buffered-routing flows over
// HTTP/JSON: a bounded job queue feeding a worker pool with per-worker
// engine reuse, an LRU result cache, and a metrics endpoint. See the
// "Running merlind" section of README.md for the API.
//
// Usage:
//
//	merlind [-addr :8080] [-workers N] [-queue N] [-cache N]
//	        [-timeout 60s] [-maxsinks 64]
//	        [-brownout 100ms] [-brownout-drain 2s]
//	        [-journal-dir DIR] [-fsync always|interval|never]
//	        [-trace-ring N] [-trace-slow 250ms] [-trace-sample N]
//	        [-gossip http://self:8080] [-gossip-peers URL,...]
//	        [-peers URL,...] [-replicas 2]
//	        [-takeover-interval 500ms] [-max-wall-cap 0]
//	merlind -smoke [-target http://host:port]
//	merlind -audit-verify -journal-dir DIR
//
// -journal-dir enables durable jobs: POST /v1/jobs acknowledgments are
// journaled to a crash-safe write-ahead log and results persist in a
// checksummed store, both under DIR; on restart the journal is replayed and
// every acknowledged-but-unfinished job runs again. -fsync trades
// acknowledgment latency against crash-loss window (default "always").
// Durability also enables the hash-chained audit log under DIR/audit.
//
// -trace-ring sizes the in-memory ring of finished request traces served by
// GET /v1/trace/{id} and streamed over GET /v1/trace/stream (0 = 512,
// negative disables tracing entirely). -trace-slow is the latency above
// which a trace is always retained; -trace-sample N keeps 1-in-N of the
// faster ones (1 = keep all).
//
// -gossip joins the fleet's SWIM-style health gossip: the flag value is this
// node's own advertised base URL, -gossip-peers seeds the membership (any
// subset; the rest is learned). Gossiping nodes exchange signed-sequence
// digests on POST /v1/gossip and expose the membership view under /v1/stats.
//
// -peers enables result replication on durable nodes: every persisted result
// is asynchronously pushed to its ring successors among the listed backend
// URLs (-replicas copies, default 2), and a node missing a result warms it
// back from a replica — checksum-verified — before recomputing. Requires
// -journal-dir (there must be a store) and -gossip (the node must know its
// own URL to exclude itself from the ring).
//
// Durable gossiping replicating nodes also fail over each other's jobs:
// every acknowledged job carries a journaled lease (owner, monotone term),
// its manifest is replicated to ring successors, and long solves checkpoint
// ladder progress to the WAL. When gossip declares an owner dead, a successor
// claims its orphaned jobs at a higher term and finishes them; a resurrected
// stale owner's writes are fenced by term comparison; a lease lives as long
// as its owner's gossip does. -takeover-interval is the orphan-sweep cadence
// (negative disables takeover). -max-wall-cap puts a server-wide ceiling on
// per-request wall budgets, including deadlines clients propagate via
// X-Merlin-Deadline-Ms (0 = uncapped).
//
// -audit-verify walks the audit log's hash chain under -journal-dir instead
// of serving: it prints a verification report and exits 0 when the chain is
// intact (a torn final line from a crash is repaired on the next server
// start and reported here as benign), or exits 1 with the first broken link
// when any acknowledged record was altered or removed.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the node first announces its
// drain (a gossiping node pushes it to every peer, so routers stop sending
// it work), then the listener stops accepting, in-flight requests drain
// (bounded by -drain), and the process exits.
//
// -smoke runs an end-to-end health check through pkg/client instead of
// serving: against -target when given, otherwise against an in-process
// server, exiting 0 on success and 1 on any failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	stdnet "net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"merlin/internal/router"
	"merlin/internal/service"
	"merlin/internal/trace"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "job queue depth (0 = 4×workers)")
		cache    = flag.Int("cache", 0, "result cache entries (0 = 256, negative disables)")
		timeout  = flag.Duration("timeout", 0, "default per-request compute timeout (0 = 60s)")
		maxSinks = flag.Int("maxsinks", 0, "reject nets with more sinks (0 = 64, negative disables)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		smoke    = flag.Bool("smoke", false, "run an end-to-end smoke test instead of serving")
		target   = flag.String("target", "", "server URL(s) for -smoke, comma-separated for client-side failover (empty = in-process server)")
		brownout = flag.Duration("brownout", 0,
			"overload-controller sampling interval (0 = 100ms, negative disables brownout)")
		brownoutDrain = flag.Duration("brownout-drain", 0,
			"estimated queue-drain time that triggers brownout degradation (0 = 2s)")
		journalDir = flag.String("journal-dir", "",
			"directory for the job write-ahead log and persistent result store (empty disables durability)")
		fsync = flag.String("fsync", "",
			`journal fsync policy: "always", "interval" or "never" (default always)`)
		traceRing = flag.Int("trace-ring", 0,
			"finished traces retained for /v1/trace/{id} (0 = 512, negative disables tracing)")
		traceSlow = flag.Duration("trace-slow", 0,
			"latency above which a trace is always retained (0 = 250ms)")
		traceSample = flag.Int("trace-sample", 0,
			"keep 1-in-N traces below -trace-slow (0 or 1 = keep all)")
		auditVerify = flag.Bool("audit-verify", false,
			"verify the audit log's hash chain under -journal-dir and exit")
		gossipSelf = flag.String("gossip", "",
			"this node's advertised base URL; joins fleet health gossip (empty disables)")
		gossipPeers = flag.String("gossip-peers", "",
			"comma-separated seed URLs for gossip membership")
		gossipInterval = flag.Duration("gossip-interval", 0,
			"gossip round cadence (0 = 200ms)")
		peers = flag.String("peers", "",
			"comma-separated durable-backend URLs forming the result replication ring (requires -journal-dir and -gossip)")
		replicaCount = flag.Int("replicas", 0,
			"replica copies pushed per persisted result (0 = 2)")
		takeoverInterval = flag.Duration("takeover-interval", 0,
			"orphaned-job takeover sweep cadence (0 = 500ms, negative disables takeover)")
		maxWallCap = flag.Duration("max-wall-cap", 0,
			"server-wide ceiling on per-request wall budgets, including X-Merlin-Deadline-Ms (0 = uncapped)")
	)
	flag.Parse()
	cfg := service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheSize:        *cache,
		DefaultTimeout:   *timeout,
		MaxSinks:         *maxSinks,
		BrownoutInterval: *brownout,
		BrownoutMaxDrain: *brownoutDrain,
		JournalDir:       *journalDir,
		Fsync:            *fsync,
		TraceRing:        *traceRing,
		TraceSlow:        *traceSlow,
		TraceSampleN:     *traceSample,
		GossipSelf:       *gossipSelf,
		GossipPeers:      splitURLs(*gossipPeers),
		GossipInterval:   *gossipInterval,
		TakeoverInterval: *takeoverInterval,
		MaxWallCap:       *maxWallCap,
	}
	if err := wireReplication(&cfg, *peers, *replicaCount); err != nil {
		fmt.Fprintln(os.Stderr, "merlind:", err)
		os.Exit(1)
	}
	var err error
	switch {
	case *auditVerify:
		err = runAuditVerify(*journalDir)
	case *smoke:
		err = runSmoke(*target, 5*time.Minute)
	default:
		err = run(*addr, *drain, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlind:", err)
		os.Exit(1)
	}
}

// splitURLs parses a comma-separated URL list, trimming trailing slashes so
// ring membership compares equal regardless of how operators typed them.
func splitURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSuffix(strings.TrimSpace(u), "/"); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// wireReplication turns -peers/-replicas into a replica ring on cfg. The
// ring is the router tier's consistent hash (virtual-node defaults), so all
// nodes agree on successor order without coordination.
func wireReplication(cfg *service.Config, peers string, replicas int) error {
	urls := splitURLs(peers)
	if len(urls) == 0 {
		return nil
	}
	if cfg.JournalDir == "" {
		return errors.New("-peers requires -journal-dir (replication needs a result store)")
	}
	if cfg.GossipSelf == "" {
		return errors.New("-peers requires -gossip (the node must know its own URL)")
	}
	ring, err := router.NewRing(urls, 0)
	if err != nil {
		return err
	}
	cfg.ReplicaRing = ring.PickString
	cfg.ReplicaSelf = cfg.GossipSelf
	cfg.ReplicaCount = replicas
	return nil
}

// runAuditVerify replays the audit log's hash chain and reports. Exit 0
// means every acknowledged record is present, in order, and byte-identical
// to what was written; a torn final line (a crash mid-append that was never
// acknowledged) is reported but does not fail verification.
func runAuditVerify(journalDir string) error {
	if journalDir == "" {
		return errors.New("-audit-verify requires -journal-dir")
	}
	rep, err := trace.VerifyAudit(filepath.Join(journalDir, "audit"))
	if err != nil {
		return fmt.Errorf("audit chain broken: %w", err)
	}
	fmt.Printf("audit chain OK: %d records", rep.Records)
	if rep.Records > 0 {
		fmt.Printf(", tail seq %d, tail hash %s", rep.TailSeq, rep.TailHash)
	}
	if rep.Truncated {
		fmt.Printf(" (torn final line from a crash mid-append; unacknowledged, repaired on next start)")
	}
	fmt.Println()
	return nil
}

func run(addr string, drain time.Duration, cfg service.Config) error {
	var srv *service.Server
	if cfg.JournalDir != "" {
		var err error
		if srv, err = service.NewDurable(cfg); err != nil {
			return err
		}
		log.Printf("merlind: durable jobs enabled (journal %s, fsync %s)", cfg.JournalDir, srv.FsyncPolicy())
	} else {
		srv = service.New(cfg)
	}
	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := stdnet.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Bind before logging so "-addr :0" reports the real port (tests and
	// supervisors parse this line).
	log.Printf("merlind: listening on %s", ln.Addr())
	errc := make(chan error, 1)
	go func() {
		// A panic out of Serve must surface as a serve error on errc (errc is
		// buffered, so the send never blocks), not kill the process before
		// the drain path below can run.
		defer func() {
			if r := recover(); r != nil {
				errc <- fmt.Errorf("serve panic: %v", r)
			}
		}()
		errc <- hs.Serve(ln)
	}()

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}

	log.Printf("merlind: draining (budget %v)", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	// Announce the drain while the listener is still open, so routers stop
	// sending work here before connections are refused; then stop the
	// listener and drain the pool. hs.Shutdown itself waits for in-flight
	// handlers, which in turn wait on their jobs.
	srv.Drain(dctx)
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("pool shutdown: %w", err)
	}
	log.Printf("merlind: drained cleanly")
	return nil
}
