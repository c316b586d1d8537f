package service

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"time"

	"merlin/internal/degrade"
	"merlin/internal/flows"
	"merlin/internal/journal"
)

// This file is the durable asynchronous job API: POST /v1/jobs acknowledges
// work only after a write-ahead-log record is on disk (per the fsync
// policy), GET /v1/jobs/{id} reports a job's state machine
//
//	queued → running → done | failed | degraded
//
// and boot-time recovery replays the WAL, re-enqueues every acknowledged-
// but-unfinished job (at-least-once, deduped by idempotency key), and wires
// completed jobs back to their checksummed results in the store. A result
// that fails its checksum is quarantined and the job transparently
// recomputed — corrupt bytes are never served.

// Job API errors the HTTP layer maps to status codes.
var (
	// ErrJobNotFound means GET /v1/jobs/{id} named an unknown (or evicted)
	// job (404, code "job_not_found").
	ErrJobNotFound = errors.New("service: job not found")
	// ErrIdemConflict means an Idempotency-Key was reused with a different
	// request body (409, code "idempotency_conflict"). Clients must not
	// retry: the same key will keep naming the original request.
	ErrIdemConflict = errors.New("service: idempotency key reused with a different request")
	// ErrDurability means the write-ahead log could not acknowledge the job
	// (503, code "durability_unavailable"): the server refuses to accept
	// async work it cannot promise to survive a crash with.
	ErrDurability = errors.New("service: journal unavailable")
)

// JobState is one node of the job state machine.
type JobState string

const (
	// JobQueued: acknowledged (journaled when durability is on) but not yet
	// picked up — including jobs re-enqueued by crash recovery.
	JobQueued JobState = "queued"
	// JobRunning: currently executing in the worker pool.
	JobRunning JobState = "running"
	// JobDone: finished at the full tier (or a non-ladder flow); result
	// available.
	JobDone JobState = "done"
	// JobFailed: finished with a terminal error (bad budget, timeout,
	// contained panic); error and code available.
	JobFailed JobState = "failed"
	// JobDegraded: finished and served by a ladder tier below full; result
	// available and truthfully annotated — a recovered job reports this
	// state exactly as a never-crashed one would.
	JobDegraded JobState = "degraded"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobDegraded
}

// JobStatus is the wire form of one job, the body of GET /v1/jobs/{id} and
// of the POST /v1/jobs acknowledgment.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// IdempotencyKey echoes the submission's key, when one was given.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Error and Code are set for failed jobs (Code follows the service error
	// taxonomy).
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	// Result is inline for done/degraded jobs, checksum-verified when served
	// from the persistent store.
	Result *RouteResponse `json:"result,omitempty"`
	// Recovered marks a job that was re-enqueued by crash recovery rather
	// than submitted to this process.
	Recovered bool `json:"recovered,omitempty"`
	// Replica marks a job this node only holds a replicated result for (it
	// was computed elsewhere): the result serves, but this node cannot
	// recompute it — it never saw the request.
	Replica bool `json:"replica,omitempty"`
}

// jobEntry is the in-memory record of one job. All fields are guarded by
// Server.jobsMu.
type jobEntry struct {
	id        string
	idem      string
	fp        string // request fingerprint: detects idempotency-key reuse
	state     JobState
	req       *RouteRequest
	resultKey string         // store key once done/degraded
	result    *RouteResponse // in-memory result, used when the store is off
	errMsg    string
	code      string
	recovered bool
	replica   bool     // result replicated here, request unknown (req == nil)
	aliases   []string // extra IDs mapped here by replay-time idem dedupe

	// Lease fields (see lease.go). owner/term are the fencing identity: the
	// node that may write this job's terminal state and the monotone term it
	// holds it at.
	owner    string
	term     uint64
	manifest bool   // replicated manifest of another node's queued job
	released bool   // owner released the lease (graceful-drain handoff)
	ckptRung string // last checkpointed ladder rung
	// orphanDefers counts takeover sweeps that deferred this orphan to a
	// preferred ring claimant; past a small cap this node claims anyway.
	orphanDefers int
}

// statusLocked snapshots the entry's wire form (result attached later, off
// the lock). Callers hold jobsMu.
func (e *jobEntry) statusLocked() *JobStatus {
	return &JobStatus{
		ID:             e.id,
		State:          string(e.state),
		IdempotencyKey: e.idem,
		Error:          e.errMsg,
		Code:           e.code,
		Recovered:      e.recovered,
		Replica:        e.replica,
	}
}

// walRecord is the JSON payload of one journal record. Snapshot records use
// walSnapshot instead.
type walRecord struct {
	T    string        `json:"t"` // "accept" | "done" | "fail" | "claim" | "release" | "ckpt"
	ID   string        `json:"id"`
	Idem string        `json:"idem,omitempty"`
	FP   string        `json:"fp,omitempty"`
	Req  *RouteRequest `json:"req,omitempty"`
	// State is "done" or "degraded" for T=="done".
	State string `json:"state,omitempty"`
	// Key is the result-store key for T=="done".
	Key   string `json:"key,omitempty"`
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	// Owner and Term are the job's lease: granted at term 1 by the accept
	// record, re-granted at a higher term by a "claim" (orphan takeover — a
	// claim also carries Idem/FP/Req so the claimant's own journal can
	// recompute the job after its crash), surrendered by a "release"
	// (graceful drain). Terminal records carry the term they finished at so
	// journal inspection can audit fencing. A lease stays live while its
	// owner's gossip state is not Dead, so no record carries an expiry.
	Owner string `json:"owner,omitempty"`
	Term  uint64 `json:"term,omitempty"`
	// Rung is T=="ckpt" progress: the ladder rung the solve reached. A
	// successor resumes at the checkpointed rung instead of recomputing
	// from the top.
	Rung string `json:"rung,omitempty"`
}

// walSnapshot is the compaction baseline: the full job table.
type walSnapshot struct {
	Jobs []walJob `json:"jobs"`
}

type walJob struct {
	ID    string        `json:"id"`
	Idem  string        `json:"idem,omitempty"`
	FP    string        `json:"fp,omitempty"`
	State string        `json:"state"`
	Req   *RouteRequest `json:"req,omitempty"`
	Key   string        `json:"key,omitempty"`
	Error string        `json:"error,omitempty"`
	Code  string        `json:"code,omitempty"`
	Owner string        `json:"owner,omitempty"`
	Term  uint64        `json:"term,omitempty"`
	Rung  string        `json:"rung,omitempty"`
}

// FsyncPolicy reports the journal fsync policy in effect; empty on servers
// built without durability.
func (s *Server) FsyncPolicy() string {
	if s.jour == nil {
		return ""
	}
	return s.cfg.Fsync
}

// newJobID mints a collision-resistant job ID.
func newJobID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; an ID built from
		// a counter would still be unique per process but not across
		// restarts, so fail loudly via the worker guard.
		panic(fmt.Sprintf("service: crypto/rand: %v", err))
	}
	return "j-" + hex.EncodeToString(b[:])
}

// fingerprint canonicalizes a request body for idempotency comparison: two
// submissions under one key must be byte-identical after decoding, not
// merely similar.
func fingerprint(req *RouteRequest) string {
	b, err := json.Marshal(req)
	if err != nil {
		return "unmarshalable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// SubmitJob validates and durably accepts one asynchronous routing job.
// With a non-empty idemKey, resubmissions of the same request return the
// original job (created=false) and a different request under the same key
// is ErrIdemConflict. The returned status is the acknowledgment: once it is
// non-error, the job survives a crash (under a durable fsync policy) and
// will eventually reach a terminal state.
//
// A traced submission (ctx from a traced handler) records the acceptance
// path — the WAL append and its fsync — as spans; the acceptance itself is
// also an "accepted" record in the hash-chained audit log.
func (s *Server) SubmitJob(ctx context.Context, req *RouteRequest, idemKey string) (st *JobStatus, created bool, err error) {
	if _, _, err := s.prepare(req); err != nil {
		return nil, false, err
	}
	if s.Draining() {
		return nil, false, ErrShuttingDown
	}
	fp := fingerprint(req)

	s.jobsMu.Lock()
	if idemKey != "" {
		if prev, ok := s.jobsByIdem[idemKey]; ok {
			defer s.jobsMu.Unlock()
			if prev.fp != fp {
				return nil, false, fmt.Errorf("%w: key %q", ErrIdemConflict, idemKey)
			}
			s.met.inc("jobs.idem_dedup")
			return prev.statusLocked(), false, nil
		}
	}
	evicted, err := s.evictForNewJobLocked()
	if err != nil {
		s.jobsMu.Unlock()
		return nil, false, err
	}
	e := &jobEntry{id: newJobID(), idem: idemKey, fp: fp, state: JobQueued, req: req}
	if s.jour != nil {
		// The accept record doubles as the term-1 lease grant: one fsync
		// acknowledges the job and fences it to this owner.
		e.owner, e.term = s.nodeID(), 1
		rec, merr := json.Marshal(walRecord{
			T: "accept", ID: e.id, Idem: e.idem, FP: e.fp, Req: req,
			Owner: e.owner, Term: e.term,
		})
		if merr == nil {
			merr = s.jour.AppendCtx(ctx, rec)
		}
		if merr != nil {
			s.jobsMu.Unlock()
			s.met.inc("journal.errors")
			s.jourDown.Store(true) // readyz flips 503 until an append succeeds
			return nil, false, fmt.Errorf("%w: %v", ErrDurability, merr)
		}
		s.jourDown.Store(false)
	}
	s.registerJobLocked(e)
	s.noteLeaseTermLocked(e.id, e.term)
	s.met.inc("jobs.submitted")
	st = e.statusLocked()
	s.jobsMu.Unlock()

	if evicted != "" {
		s.auditEvent("evicted", evicted, nil)
	}
	attrs := map[string]string{"fp": fp}
	if idemKey != "" {
		attrs["idem"] = idemKey
	}
	s.auditEvent("accepted", e.id, attrs)
	// Ring successors get the job manifest (request + lease) so they can
	// recompute it if this owner dies before finishing. Lossy and async:
	// a job whose manifest never lands is simply not recoverable elsewhere,
	// the same durability it had before manifests existed.
	s.pushJobManifest(e, manifestQueued)
	s.spawnJob(e)
	return st, true, nil
}

// auditEvent appends one job-lifecycle record to the hash-chained audit log
// (no-op on servers without one). Audit failures degrade tamper evidence,
// never the job: the WAL, not the audit chain, is the source of truth.
func (s *Server) auditEvent(event, jobID string, attrs map[string]string) {
	if s.audit == nil {
		return
	}
	if err := s.audit.Append(event, jobID, attrs); err != nil {
		s.met.inc("audit.errors")
		log.Printf("service: audit record %s for job %s not written: %v", event, jobID, err)
	}
}

// registerJobLocked indexes a new entry. Callers hold jobsMu.
func (s *Server) registerJobLocked(e *jobEntry) {
	s.jobsByID[e.id] = e
	if e.idem != "" {
		s.jobsByIdem[e.idem] = e
	}
	s.jobOrder = append(s.jobOrder, e.id)
}

// evictForNewJobLocked keeps the job table bounded: when full, the oldest
// terminal job is dropped (its id returned so the caller can audit the
// eviction off the lock); if every job is still live the submission is
// rejected like a full queue. Callers hold jobsMu.
func (s *Server) evictForNewJobLocked() (evicted string, err error) {
	max := s.cfg.MaxJobs
	if max <= 0 {
		return "", nil
	}
	if len(s.jobOrder) < max {
		return "", nil
	}
	for i, id := range s.jobOrder {
		e, ok := s.jobsByID[id]
		if !ok || !e.state.Terminal() {
			continue
		}
		delete(s.jobsByID, e.id)
		for _, a := range e.aliases {
			delete(s.jobsByID, a)
		}
		if e.idem != "" {
			delete(s.jobsByIdem, e.idem)
		}
		delete(s.myClaims, e.id)
		delete(s.jobTerms, e.id)
		s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
		s.met.inc("jobs.evicted")
		return e.id, nil
	}
	return "", fmt.Errorf("%w: job table full (%d live jobs)", ErrQueueFull, len(s.jobOrder))
}

// spawnJob starts the async runner for an accepted job.
func (s *Server) spawnJob(e *jobEntry) {
	s.runners.Add(1)
	s.goGuard("job", func() {
		defer s.runners.Done()
		s.runAsyncJob(e)
	})
}

// runAsyncJob drives one job through the worker pool. It owns the state
// transitions out of queued: running, then a terminal state — except under
// shutdown, where the job reverts to queued and the WAL carries it to the
// next boot (at-least-once).
func (s *Server) runAsyncJob(e *jobEntry) {
	s.jobsMu.Lock()
	if e.state.Terminal() {
		s.jobsMu.Unlock()
		return // raced with a concurrent requeue path; nothing to do
	}
	e.state = JobRunning
	req := e.req
	// The term this run executes under. If a successor claims the job at a
	// higher term while we run (we were presumed dead), the finish functions
	// see the gap and fence this run's result out.
	term := e.term
	resume := e.ckptRung
	s.jobsMu.Unlock()
	s.auditEvent("started", e.id, nil)

	// Async jobs run on the server's clock, not a request socket's: the
	// submitting client may be long gone. Route applies the request's own
	// timeout_ms or the server default.
	ctx := context.Background()
	if s.jour != nil {
		ctx = withCheckpointer(ctx, func(t degrade.Tier) { s.checkpointJob(e, term, t) })
	}
	if resume != "" {
		if rt, perr := degrade.ParseTier(resume); perr == nil {
			// A predecessor (or a previous run of this process) checkpointed
			// progress: start the ladder at the checkpointed rung instead of
			// recomputing the more expensive tiers above it. The ladder clamps
			// the start to the request's degradation floor, so an
			// undegradable request truthfully recomputes at full.
			ctx = withResumeRung(ctx, rt)
			s.met.inc("jobs.ckpt_resumes")
		}
	}
	var resp *RouteResponse
	var err error
	backoff := 25 * time.Millisecond
	for {
		resp, err = s.Route(ctx, req)
		if err == nil || !errors.Is(err, ErrQueueFull) {
			break
		}
		// The sync queue is full. An acknowledged job must not fail for
		// that — it waits its turn (the WAL already promises completion).
		if s.Draining() {
			err = ErrShuttingDown
			break
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
	if errors.Is(err, ErrShuttingDown) {
		// Not a verdict about the job: park it for the next boot's recovery.
		s.jobsMu.Lock()
		e.state = JobQueued
		s.jobsMu.Unlock()
		return
	}
	if err != nil {
		_, code := classifyError(err)
		s.finishJob(e, walRecord{T: "fail", ID: e.id, Error: err.Error(), Code: code, Owner: s.nodeID(), Term: term})
		s.auditEvent("failed", e.id, map[string]string{"code": code})
		return
	}

	// Persist the result before the terminal record points at it: a crash
	// between the two re-runs the job (at-least-once), never dangles a key.
	resultKey := s.jobResultKey(req, resp)
	var persisted []byte
	if s.store != nil && resultKey != "" {
		if b, merr := json.Marshal(resp); merr == nil {
			if perr := s.store.Put(resultKey, b); perr != nil {
				s.met.inc("store.write_errors")
				log.Printf("service: job %s result not persisted: %v", e.id, perr)
				resultKey = ""
			} else {
				persisted = b
			}
		} else {
			resultKey = ""
		}
	}
	state := JobDone
	if resp.Degraded {
		state = JobDegraded
	}
	if s.repl != nil && persisted != nil {
		// Replicate only what actually landed on local disk — a replica of a
		// result we couldn't persist would claim durability we don't have.
		// The push carries this run's lease term: replicas that learned a
		// higher term from a successor reject it (409), which is how a
		// resurrected stale owner's result dies at the store write.
		s.repl.EnqueueJob(resultKey, persisted, e.id, string(state), term)
	}
	rec := walRecord{T: "done", ID: e.id, State: string(state), Key: resultKey, Owner: s.nodeID(), Term: term}
	s.finishJobWithResult(e, rec, state, resultKey, resp)
	attrs := map[string]string{"state": string(state)}
	if resultKey != "" {
		attrs["key"] = resultKey
	}
	s.auditEvent("done", e.id, attrs)
}

// jobResultKey computes the store key of a finished job's result: the
// request's canonical-hash cache key suffixed with the tier that served.
func (s *Server) jobResultKey(req *RouteRequest, resp *RouteResponse) string {
	prof, fl, err := s.prepare(req)
	if err != nil {
		return "" // cannot happen: the request was prepared at submit
	}
	key, _ := cacheKeys(req, fl, prof)
	return tieredKey(key, resp.Tier)
}

// finishJob journals and applies a terminal failure.
func (s *Server) finishJob(e *jobEntry, rec walRecord) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if s.fencedLocked(e, rec.Term) {
		return
	}
	s.appendTerminalLocked(rec)
	e.state = JobFailed
	e.errMsg, e.code = rec.Error, rec.Code
	s.met.inc("jobs.async.failed")
}

// finishJobWithResult journals and applies a successful terminal state.
func (s *Server) finishJobWithResult(e *jobEntry, rec walRecord, state JobState, resultKey string, resp *RouteResponse) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if s.fencedLocked(e, rec.Term) {
		return
	}
	s.appendTerminalLocked(rec)
	e.state = state
	e.resultKey = resultKey
	if s.store == nil || resultKey == "" {
		e.result = resp // no durable copy: keep the only copy in memory
	} else {
		e.result = nil // the store's checksummed copy is authoritative
	}
	s.met.inc("jobs.async." + string(state))
}

// fencedLocked reports whether a finishing run lost its lease: the entry's
// term moved past the term the run started under (a successor claimed the
// job while this node was presumed dead). The stale run's verdict is
// discarded — no journal record, no state change — and the entry stays
// queued so the claimant's replicated terminal state (or the router's
// claimant poll) is what callers see. Callers hold jobsMu.
func (s *Server) fencedLocked(e *jobEntry, term uint64) bool {
	if term == 0 || e.term <= term {
		return false
	}
	if e.state == JobRunning {
		e.state = JobQueued
	}
	s.met.inc("jobs.fenced")
	log.Printf("service: job %s finish at term %d fenced (lease now at term %d, owner %s)", e.id, term, e.term, e.owner)
	return true
}

// snapshotEvery is how many terminal job records the WAL takes between
// compactions.
const snapshotEvery = 256

// appendTerminalLocked writes a terminal WAL record and snapshots when the
// compaction budget is due. A failed append degrades durability (the job
// will re-run after a crash — at-least-once), never blocks completion.
// Callers hold jobsMu.
func (s *Server) appendTerminalLocked(rec walRecord) {
	if s.jour == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err == nil {
		err = s.jour.Append(b)
	}
	if err != nil {
		s.met.inc("journal.errors")
		s.jourDown.Store(true)
		log.Printf("service: terminal record for job %s not journaled (job will re-run after a crash): %v", rec.ID, err)
		return
	}
	s.jourDown.Store(false)
	s.termSinceSnap++
	if s.termSinceSnap >= snapshotEvery {
		s.snapshotLocked()
	}
}

// snapshotLocked compacts the WAL: the full job table becomes the new
// replay baseline and older segments are deleted. Callers hold jobsMu.
func (s *Server) snapshotLocked() {
	if s.jour == nil {
		return
	}
	snap := walSnapshot{Jobs: make([]walJob, 0, len(s.jobOrder))}
	for _, id := range s.jobOrder {
		e, ok := s.jobsByID[id]
		if !ok {
			continue
		}
		if e.replica || e.manifest {
			// Replica and manifest entries are soft state: the authoritative
			// WAL record lives on the node that owns the job. Journaling
			// hearsay would make this node claim jobs it never accepted. A
			// manifest this node claimed (takeover) has manifest cleared and
			// its own "claim" record, so it does snapshot.
			continue
		}
		snap.Jobs = append(snap.Jobs, walJob{
			ID: e.id, Idem: e.idem, FP: e.fp, State: string(e.state),
			Req: e.req, Key: e.resultKey, Error: e.errMsg, Code: e.code,
			Owner: e.owner, Term: e.term, Rung: e.ckptRung,
		})
	}
	b, err := json.Marshal(snap)
	if err == nil {
		err = s.jour.Snapshot(b)
	}
	if err != nil {
		s.met.inc("journal.errors")
		log.Printf("service: snapshot failed (journal keeps growing until one succeeds): %v", err)
		return
	}
	s.termSinceSnap = 0
	s.met.inc("journal.snapshots")
}

// JobStatus returns one job's current state, with the result attached
// inline for done/degraded jobs. Results served from the persistent store
// are checksum-verified on every read; an entry that fails verification is
// quarantined and the job is transparently re-enqueued for recomputation —
// the caller sees a truthful non-terminal state, never corrupt bytes.
func (s *Server) JobStatus(ctx context.Context, id string) (*JobStatus, error) {
	s.jobsMu.Lock()
	e, ok := s.jobsByID[id]
	if !ok {
		s.jobsMu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrJobNotFound, id)
	}
	st := e.statusLocked()
	resultKey, result, replica := e.resultKey, e.result, e.replica
	s.jobsMu.Unlock()

	if st.State != string(JobDone) && st.State != string(JobDegraded) {
		return st, nil
	}
	if result != nil {
		st.Result = result
		return st, nil
	}
	if s.store == nil || resultKey == "" {
		return st, nil
	}
	b, err := s.store.Get(resultKey)
	if err != nil && s.repl != nil {
		// Locally gone (or quarantined): before recomputing, ask the replica
		// ring. A fetched copy is checksum-verified by the replicator and
		// re-seeded into the local store with a plain Put — re-replicating a
		// fetched copy would bounce entries around the ring forever.
		if pb, peer, ferr := s.repl.Fetch(ctx, resultKey); ferr == nil {
			if perr := s.store.PutCtx(ctx, resultKey, pb); perr != nil {
				s.met.inc("store.write_errors")
			}
			s.met.inc("jobs.peer_warmed")
			log.Printf("service: job %s result peer-warmed from %s", id, peer)
			b, err = pb, nil
		}
	}
	if err == nil {
		var resp RouteResponse
		if uerr := json.Unmarshal(b, &resp); uerr == nil {
			st.Result = &resp
			return st, nil
		}
		// Undecodable despite a valid checksum: treat like corruption below.
		_ = s.store.Delete(resultKey)
	}
	if replica {
		// A replica entry has no request to re-run. With the local copy and
		// every peer exhausted, the truthful answer is "not here" — the
		// router's scatter treats a non-owner 404 as inconclusive and keeps
		// asking the nodes that can recompute.
		return nil, fmt.Errorf("%w: %s (replica lost)", ErrJobNotFound, id)
	}
	// The durable result is gone or was quarantined: recompute. The WAL
	// accept record still holds the request, so the job simply runs again.
	s.met.inc("jobs.requeued")
	s.jobsMu.Lock()
	if e.state.Terminal() {
		e.state = JobQueued
		e.resultKey, e.result = "", nil
		st = e.statusLocked()
		s.jobsMu.Unlock()
		s.spawnJob(e)
		return st, nil
	}
	st = e.statusLocked()
	s.jobsMu.Unlock()
	return st, nil
}

// recoverJobs rebuilds the job table from the WAL. It returns the jobs that
// were acknowledged but never reached a terminal state — the ones recovery
// must run again.
func (s *Server) recoverJobs() ([]*jobEntry, error) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	stats, err := s.jour.Replay(func(rec journal.Record) error {
		if rec.Snapshot {
			s.applySnapshot(rec.Payload)
			return nil
		}
		s.applyWALRecord(rec.Payload)
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.replayStats = stats
	var pending []*jobEntry
	seen := map[*jobEntry]bool{}
	for _, id := range s.jobOrder {
		e, ok := s.jobsByID[id]
		if !ok || seen[e] {
			continue
		}
		seen[e] = true
		if !e.state.Terminal() {
			e.state = JobQueued
			e.recovered = true
			pending = append(pending, e)
		}
	}
	return pending, nil
}

// applySnapshot seeds the job table from a compaction baseline.
func (s *Server) applySnapshot(payload []byte) {
	var snap walSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		s.met.inc("journal.replay.bad_records")
		log.Printf("service: undecodable WAL snapshot ignored: %v", err)
		return
	}
	for i := range snap.Jobs {
		w := snap.Jobs[i]
		e := &jobEntry{
			id: w.ID, idem: w.Idem, fp: w.FP, state: JobState(w.State),
			req: w.Req, resultKey: w.Key, errMsg: w.Error, code: w.Code,
			owner: w.Owner, term: w.Term, ckptRung: w.Rung,
		}
		s.registerJobLocked(e)
		s.noteLeaseTermLocked(e.id, e.term)
	}
}

// applyWALRecord folds one replayed record into the job table. Replay is
// where idempotency dedupe happens a second time: if a crash managed to
// journal two accepts under one key, the later becomes an alias of the
// earlier, so the job runs exactly once.
func (s *Server) applyWALRecord(payload []byte) {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		s.met.inc("journal.replay.bad_records")
		log.Printf("service: undecodable WAL record ignored: %v", err)
		return
	}
	switch rec.T {
	case "accept":
		if rec.Idem != "" {
			if prev, ok := s.jobsByIdem[rec.Idem]; ok {
				prev.aliases = append(prev.aliases, rec.ID)
				s.jobsByID[rec.ID] = prev
				return
			}
		}
		e := &jobEntry{
			id: rec.ID, idem: rec.Idem, fp: rec.FP, state: JobQueued, req: rec.Req,
			owner: rec.Owner, term: rec.Term,
		}
		s.registerJobLocked(e)
		s.noteLeaseTermLocked(e.id, e.term)
	case "done":
		if e, ok := s.jobsByID[rec.ID]; ok {
			st := JobState(rec.State)
			if st != JobDone && st != JobDegraded {
				st = JobDone
			}
			e.state = st
			e.resultKey = rec.Key
			if rec.Term > e.term {
				e.owner, e.term = rec.Owner, rec.Term
			}
		}
	case "fail":
		if e, ok := s.jobsByID[rec.ID]; ok {
			e.state = JobFailed
			e.errMsg, e.code = rec.Error, rec.Code
			if rec.Term > e.term {
				e.owner, e.term = rec.Owner, rec.Term
			}
		}
	case "claim":
		// A takeover this node journaled: it owns the job at rec.Term. The
		// claim carries the request copied from the manifest, so replay can
		// recompute even though this node never journaled an accept.
		if e, ok := s.jobsByID[rec.ID]; ok {
			if rec.Term > e.term {
				e.owner, e.term = rec.Owner, rec.Term
			}
			e.manifest = false
			if e.req == nil {
				e.req = rec.Req
			}
			s.noteLeaseTermLocked(e.id, e.term)
			return
		}
		e := &jobEntry{
			id: rec.ID, idem: rec.Idem, fp: rec.FP, state: JobQueued, req: rec.Req,
			owner: rec.Owner, term: rec.Term,
		}
		s.registerJobLocked(e)
		s.noteLeaseTermLocked(e.id, e.term)
	case "release":
		// This node drained while holding the job: successors were invited to
		// claim it. Recovery still re-runs it (at-least-once); if a successor
		// finished it first, this node's rerun is fenced at the replica write.
		if e, ok := s.jobsByID[rec.ID]; ok {
			e.released = true
		}
	case "ckpt":
		if e, ok := s.jobsByID[rec.ID]; ok {
			e.ckptRung = rec.Rung
		}
	default:
		s.met.inc("journal.replay.bad_records")
	}
}

// storeLookup is the persistent half of the result-cache probe: on an LRU
// miss, a checksum-verified entry from the disk store warms the cache and
// serves — this is how a restart's empty cache re-warms from history. Tier
// probing mirrors cacheLookup, best first. A corrupt entry is quarantined
// inside the store and reads as a miss; with a replica ring configured the
// probe then asks the ring (peer-warm) before giving up and recomputing.
func (s *Server) storeLookup(ctx context.Context, key string, fl flows.ID, floor degrade.Tier) (*RouteResponse, bool) {
	if s.store == nil {
		return nil, false
	}
	tiers := []string{""}
	if fl == flows.FlowIII {
		tiers = tiers[:0]
		for t := degrade.TierFull; t <= floor; t++ {
			tiers = append(tiers, t.String())
		}
	}
	for _, tier := range tiers {
		tk := tieredKey(key, tier)
		b, err := s.store.Get(tk)
		if err != nil && s.repl != nil {
			pb, _, ferr := s.repl.Fetch(ctx, tk)
			if ferr != nil {
				continue
			}
			s.met.inc("cache.peer_warms")
			if perr := s.store.PutCtx(ctx, tk, pb); perr != nil {
				s.met.inc("store.write_errors")
			}
			b, err = pb, nil
		}
		if err != nil {
			continue
		}
		var resp RouteResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			// Valid checksum, undecodable content (format drift): drop it
			// rather than fail every future probe.
			_ = s.store.Delete(tk)
			continue
		}
		s.cache.Put(tk, &resp)
		return &resp, true
	}
	return nil, false
}

// persistResult writes one response through to the disk store, so cached
// answers survive restarts. Failures degrade durability, never the request.
// A traced ctx records the write as a "journal.persist" span.
func (s *Server) persistResult(ctx context.Context, key string, resp *RouteResponse) {
	if s.store == nil {
		return
	}
	b, err := json.Marshal(resp)
	if err == nil {
		err = s.store.PutCtx(ctx, key, b)
	}
	if err != nil {
		s.met.inc("store.write_errors")
		log.Printf("service: result %s not persisted: %v", key, err)
		return
	}
	if s.repl != nil {
		s.repl.Enqueue(key, b, "", "")
	}
}
