// Command merlinrouter is merlin's fleet front tier: it consistent-hashes
// canonical net fingerprints onto a replicated ring of merlind backends and
// proxies /v1/route and /v1/jobs with failover, per-backend circuit
// breakers, gossip-driven drain, optional hedged reads, and per-tenant QoS.
// The answer to every route and job submit names the router's trace of it
// in the X-Merlin-Router-Trace header (unless -trace-ring is negative),
// fetchable from the router's GET /v1/trace/{id}. See the "Running a
// cluster" section of README.md.
//
// Usage:
//
//	merlinrouter -backends http://h1:8080,http://h2:8080[,...]
//	             [-addr :8090] [-replicas 64]
//	             [-failure-threshold 3] [-eject-base 500ms] [-eject-max 30s]
//	             [-max-attempts 3] [-hedge 0]
//	             [-qos-rate 50] [-qos-burst 100] [-qos-concurrency 32]
//	             [-qos-tenants acme=gold,guest=bronze]
//	             [-trace-ring 256]
//	             [-gossip http://self:8090] [-gossip-peers URL,...]
//	             [-fleet-brownout]
//
// -backends is the ring: each URL is a merlind base URL. The ring never
// reshards at runtime — an unreachable or draining backend is skipped, and
// its keys return to it (and its warm cache) the moment it recovers. Failed
// forwards open a backend's breaker (-failure-threshold, -eject-base,
// -eject-max); after the ejection timeout the next request is its trial.
//
// -hedge enables hedged reads: a repeat /v1/route fingerprint launches a
// second attempt at the next replica after the given delay (0 disables).
//
// -qos-* configure per-tenant admission keyed by the X-Merlin-Tenant
// header: token-bucket rate limits and in-flight quotas, with priority
// classes gold (4× rate, 2× concurrency), standard and bronze (¼ rate,
// ½ concurrency) assigned via -qos-tenants. A negative -qos-rate or
// -qos-concurrency disables that gate.
//
// -gossip joins the fleet's health gossip (the flag value is this router's
// own advertised base URL, -gossip-peers the seeds — typically the
// backends). Gossip is how the router learns a backend is draining: while
// the backend's latest digest says not ready it gets no new work, and a
// newer ready digest brings its keys home. Without -gossip nothing drains a
// backend; its 503s only fail each request over.
// -fleet-brownout additionally aggregates gossiped backend pressure into a
// fleet load estimate: above the high-water mark the router stamps
// allow_degraded onto degradable requests and sheds overdraft for the lower
// QoS classes, so the fleet degrades together before any backend saturates.
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-flight
// proxied requests finish, then the process exits.
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
	"strings"
	"syscall"
	"time"

	"merlin/internal/qos"
	"merlin/internal/router"
)

func main() {
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		backends = flag.String("backends", "", "comma-separated merlind base URLs forming the ring (required)")
		replicas = flag.Int("replicas", 0, "virtual nodes per backend on the hash ring (0 = 64)")

		failThreshold = flag.Int("failure-threshold", 0, "consecutive failures that open a backend's breaker (0 = 3)")
		ejectBase     = flag.Duration("eject-base", 0, "initial breaker ejection timeout (0 = 500ms)")
		ejectMax      = flag.Duration("eject-max", 0, "breaker ejection timeout cap (0 = 30s)")
		maxAttempts   = flag.Int("max-attempts", 0, "forward attempts per request across replicas (0 = 3)")
		hedge         = flag.Duration("hedge", 0, "hedged-read delay for repeat fingerprints (0 disables)")

		qosRate        = flag.Float64("qos-rate", 0, "standard-class tenant rate in req/s (0 = 50, negative disables)")
		qosBurst       = flag.Float64("qos-burst", 0, "tenant token-bucket depth (0 = 2×rate)")
		qosConcurrency = flag.Int("qos-concurrency", 0, "standard-class tenant in-flight quota (0 = 32, negative disables)")
		qosTenants     = flag.String("qos-tenants", "", `tenant classes as "name=gold|standard|bronze,..."`)

		traceRing = flag.Int("trace-ring", 0, "retained router traces for /v1/trace/{id} (0 = 256, negative disables)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")

		gossipSelf    = flag.String("gossip", "", "this router's advertised base URL; joins fleet health gossip (empty disables)")
		gossipPeers   = flag.String("gossip-peers", "", "comma-separated seed URLs for gossip membership")
		fleetBrownout = flag.Bool("fleet-brownout", false, "coordinate brownout fleet-wide from gossiped backend pressure (requires -gossip)")
	)
	flag.Parse()
	tenants, err := qos.ParseTenantClasses(*qosTenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlinrouter:", err)
		os.Exit(1)
	}
	cfg := routerConfig(
		*backends, *replicas, *failThreshold,
		*ejectBase, *ejectMax, *maxAttempts, *hedge,
		*qosRate, *qosBurst, *qosConcurrency, tenants, *traceRing,
	)
	cfg.GossipSelf = strings.TrimSuffix(strings.TrimSpace(*gossipSelf), "/")
	for _, p := range strings.Split(*gossipPeers, ",") {
		if p = strings.TrimSuffix(strings.TrimSpace(p), "/"); p != "" {
			cfg.GossipPeers = append(cfg.GossipPeers, p)
		}
	}
	cfg.FleetBrownout = *fleetBrownout
	if err := run(*addr, *drain, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "merlinrouter:", err)
		os.Exit(1)
	}
}

func routerConfig(backends string, replicas, failThreshold int,
	ejectBase, ejectMax time.Duration, maxAttempts int, hedge time.Duration,
	qosRate, qosBurst float64, qosConcurrency int, tenants map[string]string, traceRing int) router.Config {
	var urls []string
	for _, b := range strings.Split(backends, ",") {
		if b = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(b), "/")); b != "" {
			urls = append(urls, b)
		}
	}
	return router.Config{
		Backends:         urls,
		Replicas:         replicas,
		FailureThreshold: failThreshold,
		EjectBase:        ejectBase,
		EjectMax:         ejectMax,
		MaxAttempts:      maxAttempts,
		HedgeDelay:       hedge,
		QoS: qos.Config{
			Rate:          qosRate,
			Burst:         qosBurst,
			MaxConcurrent: qosConcurrency,
			Tenants:       tenants,
		},
		TraceRing: traceRing,
	}
}

func run(addr string, drain time.Duration, cfg router.Config) error {
	if len(cfg.Backends) == 0 {
		return errors.New("-backends is required (comma-separated merlind URLs)")
	}
	rt, err := router.New(cfg)
	if err != nil {
		return err
	}
	defer rt.Close()

	hs := &http.Server{
		Addr:              addr,
		Handler:           rt.Handler(),
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
	log.Printf("merlinrouter: listening on %s, ring of %d backends", ln.Addr(), len(cfg.Backends))
	errc := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				errc <- fmt.Errorf("serve panic: %v", r)
			}
		}()
		errc <- hs.Serve(ln)
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("merlinrouter: draining (budget %v)", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("http shutdown: %w", err)
	}
	log.Printf("merlinrouter: drained cleanly")
	return nil
}
