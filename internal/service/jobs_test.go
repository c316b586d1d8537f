package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"merlin/internal/faultinject"
)

func jsonBody(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func withHeader(t *testing.T, url string, body any, k, v string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, jsonBody(t, body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(k, v)
	return req
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, s *Server, id string, within time.Duration) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st, err := s.JobStatus(context.Background(), id)
		if err != nil {
			t.Fatalf("JobStatus(%s): %v", id, err)
		}
		if JobState(st.State).Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobLifecycleHTTP drives the async API end to end over HTTP: submit,
// poll to done, duplicate idempotency key, conflicting reuse, unknown ID.
func TestJobLifecycleHTTP(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := &RouteRequest{Net: testNet(t, 6, 11)}
	submit := func(idem string, body *RouteRequest) (*http.Response, JobStatus) {
		t.Helper()
		hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", jsonBody(t, body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		if idem != "" {
			hreq.Header.Set("Idempotency-Key", idem)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		return resp, decode[JobStatus](t, resp)
	}

	resp, ack := submit("k-1", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if ack.ID == "" || ack.State != string(JobQueued) && ack.State != string(JobRunning) {
		t.Fatalf("ack = %+v, want an ID and queued/running", ack)
	}
	if ack.IdempotencyKey != "k-1" {
		t.Errorf("ack echoes key %q, want k-1", ack.IdempotencyKey)
	}

	// Duplicate submission under the same key: same job, 200 not 202.
	resp2, ack2 := submit("k-1", req)
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("duplicate submit status = %d, want 200", resp2.StatusCode)
	}
	if ack2.ID != ack.ID {
		t.Errorf("duplicate submit returned job %s, want %s", ack2.ID, ack.ID)
	}

	// Same key, different body: structured 409, never a second job.
	other := &RouteRequest{Net: testNet(t, 6, 12)}
	resp3, err := http.DefaultClient.Do(withHeader(t, ts.URL+"/v1/jobs", other, "Idempotency-Key", "k-1"))
	if err != nil {
		t.Fatal(err)
	}
	if resp3.StatusCode != http.StatusConflict {
		t.Errorf("conflicting reuse status = %d, want 409", resp3.StatusCode)
	}
	if body := decode[ErrorBody](t, resp3); body.Code != "idempotency_conflict" {
		t.Errorf("conflicting reuse code = %q, want idempotency_conflict", body.Code)
	}

	// Poll to done; the result arrives inline.
	fin := waitTerminal(t, s, ack.ID, 30*time.Second)
	if fin.State != string(JobDone) {
		t.Fatalf("final state = %s (%s %s), want done", fin.State, fin.Code, fin.Error)
	}
	got, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	st := decode[JobStatus](t, got)
	if st.Result == nil || st.Result.Tree == nil {
		t.Fatalf("done job carries no result: %+v", st)
	}

	// Unknown ID: structured 404.
	miss, err := http.Get(ts.URL + "/v1/jobs/j-doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	if miss.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", miss.StatusCode)
	}
	if body := decode[ErrorBody](t, miss); body.Code != "job_not_found" {
		t.Errorf("unknown job code = %q, want job_not_found", body.Code)
	}
}

// TestJobValidationRejected: a bad request is refused at submit time with the
// taxonomy's 400, not accepted and failed later.
func TestJobValidationRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	if _, _, err := s.SubmitJob(context.Background(), &RouteRequest{}, ""); err == nil {
		t.Fatal("missing net accepted as an async job")
	}
}

// TestJobTableBounded: when the job table is full of live jobs, submissions
// are rejected like a full queue; terminal jobs are evicted to make room.
func TestJobTableBounded(t *testing.T) {
	s := New(Config{Workers: 1, MaxJobs: 2})
	defer s.Shutdown(context.Background())
	req := &RouteRequest{Net: testNet(t, 6, 21)}
	st1, _, err := s.SubmitJob(context.Background(), req, "a")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st1.ID, 30*time.Second)
	if _, _, err := s.SubmitJob(context.Background(), &RouteRequest{Net: testNet(t, 6, 22)}, "b"); err != nil {
		t.Fatal(err)
	}
	// Table is at capacity; the terminal job "a" must be evicted for "c".
	if _, _, err := s.SubmitJob(context.Background(), &RouteRequest{Net: testNet(t, 6, 23)}, "c"); err != nil {
		t.Fatalf("submission with an evictable terminal job: %v", err)
	}
	if _, err := s.JobStatus(context.Background(), st1.ID); err == nil {
		t.Error("evicted job still resolvable")
	}
}

// TestShutdownTearsDownOnce: a second Shutdown of a journaled server
// returns once the first one's drain is done and leaves the closed journal
// alone, so it counts no journal error.
func TestShutdownTearsDownOnce(t *testing.T) {
	s, err := NewDurable(Config{Workers: 1, JournalDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ack, _, err := s.SubmitJob(context.Background(), &RouteRequest{Net: testNet(t, 6, 41)}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, ack.ID, 30*time.Second)
	for i := 1; i <= 2; i++ {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("Shutdown call %d: %v", i, err)
		}
	}
	if n := s.met.get("journal.errors"); n != 0 {
		t.Fatalf("journal.errors = %d after two Shutdown calls, want 0", n)
	}
}

// TestJobDurableRecovery is the in-process restart path: jobs submitted to a
// durable server survive Shutdown + NewDurable on the same directory with
// their state, identity and results intact, and the persistent store warms
// the fresh result cache.
func TestJobDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, JournalDir: dir}
	s, err := NewDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}

	req := &RouteRequest{Net: testNet(t, 6, 31)}
	ack, created, err := s.SubmitJob(context.Background(), req, "idem-31")
	if err != nil || !created {
		t.Fatalf("SubmitJob: created=%v err=%v", created, err)
	}
	fin := waitTerminal(t, s, ack.ID, 30*time.Second)
	if fin.State != string(JobDone) {
		t.Fatalf("state = %s, want done", fin.State)
	}
	want, err := s.JobStatus(context.Background(), ack.ID)
	if err != nil || want.Result == nil {
		t.Fatalf("result missing before restart: %+v, %v", want, err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := NewDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	st, err := s2.JobStatus(context.Background(), ack.ID)
	if err != nil {
		t.Fatalf("job lost across restart: %v", err)
	}
	if st.State != string(JobDone) {
		t.Fatalf("restarted state = %s, want done", st.State)
	}
	if st.Result == nil || st.Result.DelayNS != want.Result.DelayNS {
		t.Fatalf("restarted result = %+v, want delay %v", st.Result, want.Result.DelayNS)
	}
	// Idempotency survives the restart: resubmitting the same key returns
	// the original job, not a new one.
	dup, created, err := s2.SubmitJob(context.Background(), req, "idem-31")
	if err != nil || created || dup.ID != ack.ID {
		t.Errorf("post-restart resubmit: id=%s created=%v err=%v, want %s/false/nil", dup.ID, created, err, ack.ID)
	}
	// The store warms the fresh cache: the same synchronous request is
	// served without recompute, visible as a store warm on the counters.
	if _, err := s2.Route(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := s2.met.get("cache.store_warms"); got == 0 {
		t.Error("restarted Route did not warm from the persistent store")
	}
	if d := s2.Stats().Durability; d == nil || !d.ReplaySnapshotUsed && d.ReplayRecords == 0 {
		t.Errorf("durability stats after replay = %+v", d)
	}
}

// TestJobDegradedTruthfulAfterRecovery: a job served by a lower ladder tier
// reports state "degraded" — and still does after a restart, when its result
// comes back from the checksummed store rather than memory.
func TestJobDegradedTruthfulAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, JournalDir: dir}
	s, err := NewDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// MaxSolutions 1 starves the DP tiers deterministically; the ladder
	// serves from lttree (see the degradation-ladder tests).
	req := &RouteRequest{Net: testNet(t, 8, 33), AllowDegraded: true, Budget: &Budget{MaxSolutions: 1}}
	ack, _, err := s.SubmitJob(context.Background(), req, "idem-33")
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, ack.ID, 30*time.Second)
	if fin.State != string(JobDegraded) {
		t.Fatalf("state = %s (%s %s), want degraded", fin.State, fin.Code, fin.Error)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := NewDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	st, err := s2.JobStatus(context.Background(), ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != string(JobDegraded) {
		t.Errorf("restarted state = %s, want degraded (truthful annotation)", st.State)
	}
	if st.Result == nil || !st.Result.Degraded || st.Result.Tier == "full" || st.Result.Tier == "" {
		t.Errorf("restarted result = %+v, want a tier-annotated degraded answer", st.Result)
	}
}

// TestJobFailedDurable: a job whose route fails journals its failed
// verdict, and a server reopened over the journal replays that verdict as
// it was — failed with the same code, not recovered and not re-run.
func TestJobFailedDurable(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, JournalDir: dir}
	s, err := NewDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	// MaxSolutions 1 starves the DP, and without allow_degraded the ladder
	// may not step down: the route fails as budget_exceeded.
	req := &RouteRequest{Net: testNet(t, 6, 35), Budget: &Budget{MaxSolutions: 1}}
	ack, _, err := s.SubmitJob(context.Background(), req, "")
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, ack.ID, 30*time.Second)
	if fin.State != string(JobFailed) || fin.Code != "budget_exceeded" {
		t.Fatalf("state = %s (%s %s), want failed with budget_exceeded", fin.State, fin.Code, fin.Error)
	}

	// Reopen as after a crash, with no shutdown snapshot: the verdict must
	// come back from the WAL's fail record.
	s2, err := NewDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	st, err := s2.JobStatus(context.Background(), ack.ID)
	if err != nil {
		t.Fatalf("failed job lost across restart: %v", err)
	}
	if st.State != string(JobFailed) || st.Code != fin.Code || st.Recovered {
		t.Fatalf("restarted job = %s (%s) recovered=%v, want failed (%s) and not recovered", st.State, st.Code, st.Recovered, fin.Code)
	}
	if got := s2.met.get("jobs.async.failed"); got != 0 {
		t.Errorf("jobs.async.failed = %d on the restarted server: the failed job ran again", got)
	}
}

// TestJobCorruptResultRequeued: a stored result that fails its checksum is
// quarantined and the job transparently recomputed — the poller sees a
// truthful non-terminal state and then a fresh verified result, never the
// corrupt bytes.
func TestJobCorruptResultRequeued(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, err := NewDurable(Config{Workers: 2, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	req := &RouteRequest{Net: testNet(t, 6, 41)}
	ack, _, err := s.SubmitJob(context.Background(), req, "")
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, ack.ID, 30*time.Second)
	if fin.State != string(JobDone) {
		t.Fatalf("state = %s, want done", fin.State)
	}
	// Drop the in-memory copies so the next read must hit the disk store,
	// then make that read corrupt.
	s.cache = newLRU(s.cfg.CacheSize)
	s.jobsMu.Lock()
	s.jobsByID[ack.ID].result = nil
	s.jobsMu.Unlock()
	faultinject.Arm(faultinject.SiteStoreRead, faultinject.Fault{Mode: faultinject.ModeError})
	st, err := s.JobStatus(context.Background(), ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if JobState(st.State).Terminal() {
		t.Fatalf("corrupt stored result served terminal state %s; want requeue", st.State)
	}
	faultinject.Reset()
	healed := waitTerminal(t, s, ack.ID, 30*time.Second)
	if healed.State != string(JobDone) {
		t.Fatalf("healed state = %s, want done", healed.State)
	}
	if got, err := s.JobStatus(context.Background(), ack.ID); err != nil || got.Result == nil {
		t.Fatalf("healed job has no result: %+v, %v", got, err)
	}
	if q := s.store.Stats().Quarantined; q == 0 {
		t.Error("corrupt entry was not quarantined")
	}
}

// TestDurabilityUnavailable: when the WAL cannot acknowledge a submission,
// the job is refused with ErrDurability (503 durability_unavailable), not
// accepted on a promise the server cannot keep.
func TestDurabilityUnavailable(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, err := NewDurable(Config{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	faultinject.Arm(faultinject.SiteJournalAppend, faultinject.Fault{Mode: faultinject.ModeError})
	_, _, err = s.SubmitJob(context.Background(), &RouteRequest{Net: testNet(t, 6, 51)}, "")
	faultinject.Reset()
	if err == nil {
		t.Fatal("journal append failure still acknowledged the job")
	}
	if status, code := classifyError(err); status != http.StatusServiceUnavailable || code != "durability_unavailable" {
		t.Errorf("classified as %d %s, want 503 durability_unavailable", status, code)
	}

	// The failed append must also flip readiness — a server that cannot
	// acknowledge jobs should be drained from the ring, not restarted, so
	// readyz (not healthz) reports it.
	if ok, reason := s.Ready(); ok || reason != "journal_unavailable" {
		t.Errorf("Ready() after append failure = %v %q, want false journal_unavailable", ok, reason)
	}
	// A subsequent successful append clears it.
	if _, _, err := s.SubmitJob(context.Background(), &RouteRequest{Net: testNet(t, 6, 52)}, ""); err != nil {
		t.Fatalf("submit after journal recovered: %v", err)
	}
	if ok, reason := s.Ready(); !ok {
		t.Errorf("Ready() after recovery = false %q, want true", reason)
	}
}

// TestNewDurableRequiresDir pins the constructor contract.
func TestNewDurableRequiresDir(t *testing.T) {
	if _, err := NewDurable(Config{}); err == nil {
		t.Error("NewDurable without JournalDir succeeded")
	}
	if _, err := NewDurable(Config{JournalDir: t.TempDir(), Fsync: "sometimes"}); err == nil {
		t.Error("NewDurable with a bogus fsync policy succeeded")
	}
}

// TestJournalDirLayout documents the on-disk shape operators see: wal/ and
// store/ under the journal dir, store quarantine alongside the entries.
func TestJournalDirLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurable(Config{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	for _, sub := range []string{"wal", "store", filepath.Join("store", "quarantine")} {
		if _, err := os.Stat(filepath.Join(dir, sub)); err != nil {
			t.Errorf("missing %s: %v", sub, err)
		}
	}
	if got := s.FsyncPolicy(); got != "always" {
		t.Errorf("default fsync policy = %q, want always", got)
	}
}
