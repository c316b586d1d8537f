package service

import (
	"context"
	"encoding/json"
	"log"
	"sort"
	"time"

	"merlin/internal/degrade"
	"merlin/internal/faultinject"
	"merlin/internal/gossip"
)

// This file is the fleet-wide job failover machinery: journaled leases,
// checkpointed progress, and orphan takeover.
//
// Every durably accepted job carries a lease — (owner, term) — journaled
// with the accept record, so the one fsync that acknowledges the job also
// fences it to its owner. Owners renew leases for free: the lease
// high-water mark and any takeover claims ride the gossip digest, so a lease
// is live exactly while its owner's gossip state is not Dead, and no record
// carries an expiry. When gossip declares an owner dead (or the owner
// journals a release while draining), ring successors holding the job's
// replicated manifest elect a claimant — first live non-owner on the job's
// replica ring — which journals a "claim" record at term+1 and runs the job
// itself.
//
// The term is the fencing token. A resurrected stale owner can still finish
// its run, but its terminal verdict dies twice: locally, because the entry's
// term moved past the term the run started under (fencedLocked), and at
// every replica, because the result push carries the stale term and the
// receivers learned a higher one (409 at the store write). Exactly-once
// acknowledgement therefore survives split-brain: at most one owner's
// terminal state propagates per term, and terms totally order owners.

// Manifest push states, carried in the replication state header alongside
// the job id. "queued" replicates a just-accepted job's request + lease to
// its ring successors; "released" is the graceful-drain handoff.
const (
	manifestQueued   = "queued"
	manifestReleased = "released"
)

// maxOrphanDefers bounds how many takeover sweeps a node yields an orphan to
// a preferred ring claimant that is not stepping up. The elected node can
// legitimately never claim — its copy of the job may already be terminal from
// a folded result push — so a deterministic election alone can wedge forever.
const maxOrphanDefers = 4

// jobManifest is the replicated description of an accepted job: everything a
// ring successor needs to recompute it — the request — plus the lease it
// would have to out-term to do so.
type jobManifest struct {
	ID    string        `json:"id"`
	Idem  string        `json:"idem,omitempty"`
	FP    string        `json:"fp,omitempty"`
	Req   *RouteRequest `json:"req"`
	Owner string        `json:"owner"`
	Term  uint64        `json:"term"`
}

// manifestKey is the store key manifests replicate under. The prefix keeps
// them out of the result namespace; the job id keys the replica ring, so a
// job's manifest and its successors are picked by the same hash.
func manifestKey(jobID string) string {
	return "job|" + jobID
}

// nodeID is this node's name in lease records and gossip claims: its fleet
// identity. Ring membership (ReplicaSelf) and gossip identity (GossipSelf)
// are the same URL in any deployed fleet; either works alone, and "local"
// covers single-node durable servers, whose leases never leave the WAL.
func (s *Server) nodeID() string {
	if s.cfg.ReplicaSelf != "" {
		return s.cfg.ReplicaSelf
	}
	if s.cfg.GossipSelf != "" {
		return s.cfg.GossipSelf
	}
	return "local"
}

// noteLeaseTermLocked folds one learned fencing term into the lease
// high-water mark and the per-job term table. Callers hold jobsMu.
func (s *Server) noteLeaseTermLocked(jobID string, term uint64) {
	if term == 0 {
		return
	}
	if term > s.leaseHW {
		s.leaseHW = term
	}
	// The term table is hearsay-bounded: entries for jobs this node holds
	// are cleaned up by eviction; capping the rest keeps a gossip storm of
	// foreign claims from growing the map without bound.
	if _, known := s.jobTerms[jobID]; !known && len(s.jobTerms) >= 4*s.cfg.MaxJobs {
		return
	}
	if term > s.jobTerms[jobID] {
		s.jobTerms[jobID] = term
	}
}

// pushJobManifest replicates a job's manifest to its ring successors under
// the given state ("queued" on accept, "released" on drain). Lossy and
// async like every replica push: a manifest that never lands just means the
// job is not recoverable elsewhere — the durability it had before manifests
// existed.
func (s *Server) pushJobManifest(e *jobEntry, state string) {
	if s.repl == nil {
		return
	}
	s.jobsMu.Lock()
	m := jobManifest{ID: e.id, Idem: e.idem, FP: e.fp, Req: e.req, Owner: e.owner, Term: e.term}
	s.jobsMu.Unlock()
	b, err := json.Marshal(m)
	if err != nil {
		return
	}
	s.repl.EnqueueJob(manifestKey(m.ID), b, m.ID, state, m.Term)
}

// fencedPut is the replica-side fencing check for an incoming push: true
// when this node has learned a higher term for the job than the push
// carries, in which case the write must be rejected (409) — it is a stale
// owner's work. A push at the known-or-higher term teaches us its term.
func (s *Server) fencedPut(jobID string, term uint64) bool {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	known := s.jobTerms[jobID]
	if e, ok := s.jobsByID[jobID]; ok && e.term > known {
		known = e.term
	}
	if known > term {
		s.met.inc("replica.fenced")
		return true
	}
	s.noteLeaseTermLocked(jobID, term)
	return false
}

// publishLease refreshes the lease block of this node's gossip digest: the
// high-water mark and the takeover claims it stands behind. This IS lease
// renewal — one advertisement covers every lease the node holds. The
// injected lease.renew fault skips one advertisement round; the previous
// digest keeps circulating, so a single skip costs staleness, not the lease.
func (s *Server) publishLease() {
	if s.jour == nil {
		return
	}
	if err := faultinject.Fire(faultinject.SiteLeaseRenew); err != nil {
		s.met.inc("lease.renew_skipped")
		return
	}
	s.jobsMu.Lock()
	hw := s.leaseHW
	claims := make([]gossip.Claim, 0, len(s.myClaims))
	for id, t := range s.myClaims {
		claims = append(claims, gossip.Claim{Job: id, Term: t})
	}
	s.jobsMu.Unlock()
	sort.Slice(claims, func(i, j int) bool { return claims[i].Job < claims[j].Job })
	s.gossip.SetLocalLease(hw, claims)
}

// canTakeover reports whether this node participates in orphan takeover: it
// needs the WAL (to journal claims), the replica ring (to receive manifests
// and elect deterministically) and gossip (to learn who died).
func (s *Server) canTakeover() bool {
	return s.jour != nil && s.repl != nil && s.gossip != nil &&
		s.cfg.ReplicaRing != nil && s.cfg.TakeoverInterval > 0
}

// takeoverLoop periodically sweeps gossip evidence for orphaned jobs.
func (s *Server) takeoverLoop() {
	t := time.NewTicker(s.cfg.TakeoverInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopBrown:
			return
		case <-t.C:
			s.takeoverSweep()
		}
	}
}

// takeoverSweep is one round of orphan detection and claiming:
//
//  1. Adopt the fleet's claims: every claim gossiped at a higher term than
//     we know moves the job's owner/term — including fencing out our own
//     in-flight run if we were the one presumed dead.
//  2. Find orphans among our manifest entries: acknowledged, unfinished,
//     owner dead (per gossip) or lease released (owner drained).
//  3. Elect per job on its replica ring: the first live non-owner claims.
//     If that is us, journal the claim at term+1 and run the job; if a
//     live node precedes us, leave it to them (they sweep too). A claimant
//     that dies in turn re-orphans the job at the higher term — chains
//     terminate because terms only grow.
func (s *Server) takeoverSweep() {
	if s.Draining() {
		return
	}
	members := s.gossip.Members()
	s.adoptClaims(members)

	dead := make(map[string]bool, len(members))
	for _, m := range members {
		if m.Digest.State == gossip.Dead {
			dead[m.Digest.Node] = true
		}
	}
	self := s.nodeID()

	s.jobsMu.Lock()
	var orphans []*jobEntry
	for _, id := range s.jobOrder {
		e := s.jobsByID[id]
		if e == nil || e.id != id || !e.manifest || e.state.Terminal() || e.req == nil {
			continue
		}
		if e.released || (e.owner != "" && e.owner != self && dead[e.owner]) {
			orphans = append(orphans, e)
		}
	}
	s.jobsMu.Unlock()

	for _, e := range orphans {
		s.tryClaim(e, self, dead)
	}
}

// adoptClaims merges gossiped takeover claims into the local view. A claim
// at a higher term than we hold a job at moves the job to the claimant —
// the local fencing half of split-brain safety.
func (s *Server) adoptClaims(members []gossip.Member) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	for _, m := range members {
		for _, c := range m.Digest.Claims {
			s.noteLeaseTermLocked(c.Job, c.Term)
			e, ok := s.jobsByID[c.Job]
			if !ok || c.Term <= e.term {
				continue
			}
			e.owner, e.term = m.Digest.Node, c.Term
			if mine, held := s.myClaims[c.Job]; held && mine < c.Term {
				delete(s.myClaims, c.Job) // outbid: their claim fences ours
			}
		}
	}
}

// tryClaim elects a claimant for one orphaned job and, if it is this node,
// performs the journaled claim and starts the job.
func (s *Server) tryClaim(e *jobEntry, self string, dead map[string]bool) {
	ring := s.cfg.ReplicaRing(manifestKey(e.id))
	s.jobsMu.Lock()
	owner, term := e.owner, e.term
	if !e.manifest || e.state.Terminal() {
		s.jobsMu.Unlock()
		return // adopted or finished since the sweep snapshot
	}
	s.jobsMu.Unlock()
	// Election picks the first live non-owner; rank is this node's position
	// among ALL non-owners, dead or not. The claim term below is offset by
	// rank, so two nodes racing for the same orphan pick distinct fencing
	// tokens by construction — same-term dual acknowledgement cannot happen
	// even when a claim's gossip lags behind a deference-cap breakout.
	elected := ""
	rank := -1
	nonOwners := 0
	for _, node := range ring {
		if node == owner {
			continue
		}
		if node == self {
			rank = nonOwners
		}
		if elected == "" && !dead[node] {
			elected = node
		}
		nonOwners++
	}
	if rank < 0 {
		rank = nonOwners // not on this key's ring: claim above every member
	}
	if elected != self {
		// A live predecessor on the ring is the deterministic claimant — but
		// it may hold this job as already terminal (its copy folded a result
		// push the fleet later lost) and so never see the orphan. Stand by
		// for a few sweeps, then claim anyway: a duplicate claim costs one
		// recompute that fencing de-duplicates; a wedged lease costs the job.
		s.jobsMu.Lock()
		e.orphanDefers++
		standBy := e.orphanDefers <= maxOrphanDefers
		s.jobsMu.Unlock()
		if standBy {
			return
		}
	}

	if err := faultinject.Fire(faultinject.SiteLeaseClaim); err != nil {
		// Injected claim failure abandons this attempt only; the orphan is
		// still an orphan and the next sweep retries. The journal append
		// below is the atomic commit point — a claim is ours only once its
		// record is durable.
		s.met.inc("lease.claim_failed")
		return
	}

	s.jobsMu.Lock()
	if !e.manifest || e.state.Terminal() || e.term != term {
		s.jobsMu.Unlock()
		return // raced with adoption or a replica update; re-evaluate next sweep
	}
	newTerm := term + 1 + uint64(rank)
	claim := walRecord{
		T: "claim", ID: e.id, Idem: e.idem, FP: e.fp, Req: e.req,
		Owner: self, Term: newTerm,
	}
	b, err := json.Marshal(claim)
	if err == nil {
		err = s.jour.Append(b)
	}
	if err != nil {
		s.jobsMu.Unlock()
		s.met.inc("journal.errors")
		log.Printf("service: claim for orphaned job %s not journaled: %v", e.id, err)
		return
	}
	e.owner, e.term = self, newTerm
	e.manifest = false
	e.recovered = true
	e.state = JobQueued
	s.myClaims[e.id] = e.term
	s.noteLeaseTermLocked(e.id, e.term)
	s.met.inc("jobs.takeovers")
	s.jobsMu.Unlock()

	s.auditEvent("claimed", e.id, map[string]string{"from": owner})
	log.Printf("service: claimed orphaned job %s from %s at term %d", e.id, owner, newTerm)
	// Advertise before computing: the sooner the fleet learns the claim term,
	// the sooner a resurrected stale owner's pushes bounce.
	if s.gossip != nil {
		s.publishLease()
	}
	s.spawnJob(e)
}

// checkpointJob journals one progress record for a running job: the ladder
// rung about to run. A successor (or this
// node's next boot) resumes at the checkpointed rung instead of recomputing
// the more expensive tiers above it. Failures lose only this checkpoint —
// the job still runs; recovery just resumes from an older rung.
func (s *Server) checkpointJob(e *jobEntry, term uint64, t degrade.Tier) {
	if s.jour == nil {
		return
	}
	if err := faultinject.Fire(faultinject.SiteJobCheckpoint); err != nil {
		s.met.inc("jobs.ckpt_skipped")
		return
	}
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if e.term != term {
		return // fenced mid-run: don't journal progress for a lease we lost
	}
	b, err := json.Marshal(walRecord{T: "ckpt", ID: e.id, Term: term, Rung: t.String()})
	if err == nil {
		err = s.jour.Append(b)
	}
	if err != nil {
		s.met.inc("journal.errors")
		return
	}
	e.ckptRung = t.String()
	s.met.inc("jobs.checkpoints")
}

// releaseLeasesForDrain is the graceful-drain half of failover: for every
// job this node still owns unfinished, journal a release record and push a
// "released" manifest to the ring, inviting successors to claim without
// waiting for a death verdict that never comes (a drained node gossips
// "draining", not "dead"). Runs during Shutdown, after the async runners
// have parked.
func (s *Server) releaseLeasesForDrain() {
	if s.jour == nil {
		return
	}
	self := s.nodeID()
	s.jobsMu.Lock()
	var released []*jobEntry
	for _, id := range s.jobOrder {
		e := s.jobsByID[id]
		if e == nil || e.id != id {
			continue
		}
		if e.state.Terminal() || e.replica || e.manifest || e.released {
			continue
		}
		if e.owner != self || e.term == 0 {
			continue
		}
		b, err := json.Marshal(walRecord{T: "release", ID: e.id, Owner: self, Term: e.term})
		if err == nil {
			err = s.jour.Append(b)
		}
		if err != nil {
			s.met.inc("journal.errors")
			continue
		}
		e.released = true
		released = append(released, e)
		s.met.inc("jobs.lease_released")
	}
	s.jobsMu.Unlock()
	for _, e := range released {
		s.pushJobManifest(e, manifestReleased)
		s.auditEvent("released", e.id, nil)
	}
	if len(released) > 0 {
		log.Printf("service: drain released %d unfinished lease(s) to the ring", len(released))
	}
}

// ckptCtxKey carries the checkpoint hook into the worker; resumeCtxKey
// carries the rung a recovered/claimed job resumes at.
type (
	ckptCtxKey   struct{}
	resumeCtxKey struct{}
)

func withCheckpointer(ctx context.Context, fn func(degrade.Tier)) context.Context {
	return context.WithValue(ctx, ckptCtxKey{}, fn)
}

func checkpointerFrom(ctx context.Context) func(degrade.Tier) {
	fn, _ := ctx.Value(ckptCtxKey{}).(func(degrade.Tier))
	return fn
}

func withResumeRung(ctx context.Context, t degrade.Tier) context.Context {
	return context.WithValue(ctx, resumeCtxKey{}, t)
}

func resumeRungFrom(ctx context.Context) (degrade.Tier, bool) {
	t, ok := ctx.Value(resumeCtxKey{}).(degrade.Tier)
	return t, ok
}

// LeaseStats is the /v1/stats leases block (inside durability).
type LeaseStats struct {
	// Node is this node's lease identity (owner name in records and claims).
	Node string `json:"node"`
	// HighWater is the highest lease term granted or learned here; it rides
	// the gossip digest as the cheap renewal signal.
	HighWater uint64 `json:"high_water"`
	// Held counts unfinished jobs this node owns; Manifests counts other
	// nodes' unfinished jobs replicated here (takeover candidates); Claims
	// counts takeover claims this node currently advertises.
	Held      int `json:"held"`
	Manifests int `json:"manifests"`
	Claims    int `json:"claims"`
	// Takeovers counts orphaned jobs this node claimed; Released counts
	// leases handed off during drain.
	Takeovers uint64 `json:"takeovers"`
	Released  uint64 `json:"released"`
	// Fenced counts stale local finishes discarded; FencedPuts counts stale
	// replica pushes rejected with 409.
	Fenced     uint64 `json:"fenced"`
	FencedPuts uint64 `json:"fenced_puts"`
	// Checkpoints and Resumes count journaled progress records and jobs that
	// restarted from one.
	Checkpoints uint64 `json:"checkpoints"`
	Resumes     uint64 `json:"resumes"`
}

// leaseStats assembles the stats block; counters is the metrics snapshot the
// caller already took.
func (s *Server) leaseStats(counters map[string]uint64) *LeaseStats {
	self := s.nodeID()
	ls := &LeaseStats{
		Node:        self,
		Takeovers:   counters["jobs.takeovers"],
		Released:    counters["jobs.lease_released"],
		Fenced:      counters["jobs.fenced"],
		FencedPuts:  counters["replica.fenced"],
		Checkpoints: counters["jobs.checkpoints"],
		Resumes:     counters["jobs.ckpt_resumes"],
	}
	s.jobsMu.Lock()
	ls.HighWater = s.leaseHW
	ls.Claims = len(s.myClaims)
	for _, id := range s.jobOrder {
		e := s.jobsByID[id]
		if e == nil || e.id != id || e.state.Terminal() {
			continue
		}
		switch {
		case e.manifest:
			ls.Manifests++
		case e.owner == self && e.term > 0:
			ls.Held++
		}
	}
	s.jobsMu.Unlock()
	return ls
}
