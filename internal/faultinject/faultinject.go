// Package faultinject provides named fault-injection sites for robustness
// testing: code under test calls Fire("site") at interesting points, and a
// test (or an operator chasing a production repro) arms sites to panic,
// delay, or return errors there.
//
// The package is gated two ways:
//
//   - Environment: MERLIN_FAULTS="core.construct=panic@0.2,service.worker=delay:50ms"
//     arms sites at process start (cmd/merlind documents this as a chaos-
//     drill knob; it is never set in normal operation).
//   - Programmatically: Arm/Disarm/Reset, used by the chaos tests.
//
// When nothing is armed — the production state — Fire is a single atomic
// load and an immediate return, cheap enough to sit inside the DP's
// per-sub-problem loop.
//
// Fault specs
//
//	site=panic            panic at the site
//	site=error            return an injected error
//	site=delay:50ms       sleep, then proceed normally
//
// Any spec may append @p (0 < p <= 1) to fire probabilistically, e.g.
// "panic@0.1" panics on roughly one call in ten.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is what happens when an armed site fires.
type Mode int

const (
	// ModePanic panics at the site; the layer under test must contain it.
	ModePanic Mode = iota
	// ModeError makes Fire return ErrInjected (wrapped with the site name).
	ModeError
	// ModeDelay sleeps for Fault.Delay, then lets the call proceed.
	ModeDelay
)

// ErrInjected is the sentinel all ModeError injections wrap.
var ErrInjected = errors.New("faultinject: injected error")

// Fault describes one armed site.
type Fault struct {
	Mode Mode
	// Delay is the sleep for ModeDelay.
	Delay time.Duration
	// Prob fires the fault on each call with this probability; 0 or 1 mean
	// "always".
	Prob float64
}

var (
	enabled atomic.Bool // fast-path gate: true iff any site is armed
	mu      sync.Mutex
	sites   map[string]Fault
	rng     = rand.New(rand.NewSource(1)) // deterministic; guarded by mu
)

func init() {
	if spec := os.Getenv("MERLIN_FAULTS"); spec != "" {
		if err := Set(spec); err != nil {
			// Refusing to start with a half-parsed chaos config beats
			// silently dropping faults an operator thinks are armed.
			panic(fmt.Sprintf("faultinject: bad MERLIN_FAULTS: %v", err))
		}
	}
}

// Fire triggers the fault armed at site, if any. The disarmed path is one
// atomic load.
func Fire(site string) error {
	if !enabled.Load() {
		return nil
	}
	return fire(site)
}

func fire(site string) error {
	mu.Lock()
	f, ok := sites[site]
	if ok && f.Prob > 0 && f.Prob < 1 && rng.Float64() >= f.Prob {
		ok = false
	}
	mu.Unlock()
	if !ok {
		return nil
	}
	switch f.Mode {
	case ModePanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s", site))
	case ModeDelay:
		time.Sleep(f.Delay)
		return nil
	default:
		return fmt.Errorf("%w at %s", ErrInjected, site)
	}
}

// Arm installs (or replaces) the fault at site.
func Arm(site string, f Fault) {
	mu.Lock()
	if sites == nil {
		sites = map[string]Fault{}
	}
	sites[site] = f
	mu.Unlock()
	enabled.Store(true)
}

// Disarm removes the fault at site, if armed.
func Disarm(site string) {
	mu.Lock()
	delete(sites, site)
	empty := len(sites) == 0
	mu.Unlock()
	if empty {
		enabled.Store(false)
	}
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	sites = nil
	mu.Unlock()
	enabled.Store(false)
}

// Seed re-seeds the probability roll, so probabilistic chaos runs are
// reproducible per seed.
func Seed(seed int64) {
	mu.Lock()
	rng = rand.New(rand.NewSource(seed))
	mu.Unlock()
}

// Set parses a MERLIN_FAULTS-style spec ("site=mode[:arg][@prob],...") and
// arms every site in it. Parsing is all-or-nothing: on error nothing changes.
func Set(spec string) error {
	parsed := map[string]Fault{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, fspec, ok := strings.Cut(part, "=")
		if !ok || site == "" {
			return fmt.Errorf("bad fault %q (want site=spec)", part)
		}
		var f Fault
		if body, prob, hasProb := strings.Cut(fspec, "@"); hasProb {
			p, err := strconv.ParseFloat(prob, 64)
			if err != nil || p <= 0 || p > 1 {
				return fmt.Errorf("bad probability %q in %q", prob, part)
			}
			f.Prob = p
			fspec = body
		}
		mode, arg, _ := strings.Cut(fspec, ":")
		switch mode {
		case "panic":
			f.Mode = ModePanic
		case "error":
			f.Mode = ModeError
		case "delay":
			d, err := time.ParseDuration(arg)
			if err != nil || d < 0 {
				return fmt.Errorf("bad delay %q in %q", arg, part)
			}
			f.Mode, f.Delay = ModeDelay, d
		default:
			return fmt.Errorf("unknown fault mode %q in %q", mode, part)
		}
		parsed[site] = f
	}
	for site, f := range parsed {
		Arm(site, f)
	}
	return nil
}

// Site names used by this repository. Keeping them here (rather than as
// loose strings at the call sites) makes armable points discoverable.
const (
	// SiteCoreConstruct fires inside the DP's (L,E,R) sub-problem loop, the
	// deepest point a request reaches; a panic here must be contained by the
	// engine boundary and surface as core.ErrInternal.
	SiteCoreConstruct = "core.construct"
	// SiteServiceWorker fires as a worker picks up a job, before any engine
	// work; a panic here must be contained by the worker guard.
	SiteServiceWorker = "service.worker"
	// SiteServiceHandler fires at the top of every HTTP request; a panic here
	// must be contained by the handler middleware.
	SiteServiceHandler = "service.handler"
	// SiteDegradeLadder fires at the top of Ladder.Solve, before any tier
	// runs; a panic here must be contained by the worker guard.
	SiteDegradeLadder = "degrade.ladder"
	// SiteDegradeTier fires as each ladder tier starts; a panic here must be
	// contained by the per-tier guard and make the ladder fall down a rung
	// instead of failing the request.
	SiteDegradeTier = "degrade.tier"
	// SiteJournalAppend fires inside journal.Append before the frame write;
	// an injected error additionally leaves a deliberately short (torn) write
	// on disk, which replay must truncate away.
	SiteJournalAppend = "journal.append"
	// SiteJournalFsync fires inside the journal's fsync path; an injected
	// error models a failing disk and must surface to the appender, never be
	// swallowed as durable.
	SiteJournalFsync = "journal.fsync"
	// SiteJournalReplay fires at the top of journal.Replay; an injected error
	// must abort recovery loudly rather than boot with partial state.
	SiteJournalReplay = "journal.replay"
	// SiteStoreRead fires inside Store.Get after the bytes are read; an
	// injected error flips one payload bit (latent disk corruption), which
	// the per-entry checksum must catch and quarantine, never serve.
	SiteStoreRead = "store.read"
	// SiteRouterForward fires on every attempt the router makes to forward a
	// request to a backend, before the proxy request is sent; an injected
	// error counts as a connection failure and must trigger failover to the
	// next ring replica (and a breaker failure for the skipped backend),
	// never a client-visible 5xx while replicas remain.
	SiteRouterForward = "router.forward"
	// SiteGossipSend fires before each outgoing gossip exchange; an injected
	// error counts as an unreachable peer and must only delay convergence
	// (suspicion timers still run), never wedge the gossip loop.
	SiteGossipSend = "gossip.send"
	// SiteGossipMerge fires inside digest merge on each received packet; an
	// injected error must drop that packet whole — partial merges would split
	// the membership view — and be counted, never panic the node.
	SiteGossipMerge = "gossip.merge"
	// SiteStoreReplicate fires before each replica push to a ring successor;
	// an injected error fails only that copy (retried by the queue), and the
	// local write it shadows stays durable and serveable.
	SiteStoreReplicate = "store.replicate"
	// SiteStorePeerWarm fires inside the peer-warm fetch after the replica
	// bytes arrive; an injected error flips one payload bit (a corrupt
	// replica), which the MRS1 checksum must catch — the fetch is discarded
	// and the result recomputed, never served or re-replicated.
	SiteStorePeerWarm = "store.peerwarm"
	// SiteLeaseRenew fires before a node advertises its lease high-water mark
	// in the gossip digest; an injected error skips only that round's lease
	// advertisement (counted), and the leases themselves — journaled records —
	// stay valid: renewal is cheap exactly because it can miss a beat.
	SiteLeaseRenew = "lease.renew"
	// SiteLeaseClaim fires before a successor journals a takeover claim for an
	// orphaned job; an injected error abandons only that claim attempt — the
	// next takeover sweep retries — and must never leave a claim record
	// half-applied (journal append is the atomic commit point).
	SiteLeaseClaim = "lease.claim"
	// SiteJobCheckpoint fires before a running job appends a progress
	// checkpoint record; an injected error loses only that checkpoint
	// (counted) — the job keeps computing and a successor merely resumes from
	// an older rung, trading work for correctness, never the reverse.
	SiteJobCheckpoint = "job.checkpoint"
)
