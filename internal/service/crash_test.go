package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	stdnet "net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"testing"
	"time"

	"merlin/internal/journal"
	"merlin/internal/net"
	"merlin/internal/trace"
)

// TestCrashRecovery is the durability acceptance test: a real merlind-shaped
// process (this test binary re-exec'd) acknowledges async jobs into the WAL,
// is SIGKILLed mid-flight, the parent injects the failure modes a crash
// leaves behind — a torn final journal record and a flipped bit in a stored
// result — and a fresh server over the same directory must:
//
//   - truncate the torn tail (visible in the replay stats);
//   - recover every acknowledged job exactly once: same IDs, idempotency
//     aliases intact, each reaching a terminal state;
//   - quarantine the corrupted result and recompute it, never serve it.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test; skipped in -short")
	}
	dir := t.TempDir()

	// --- Phase 1: child process accepts jobs, then dies by SIGKILL. ---
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashRecoveryChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		"MERLIN_CRASH_CHILD=1",
		"MERLIN_CRASH_DIR="+dir,
		// One slow worker: the first job takes 400ms, so the jobs behind it
		// are provably acknowledged-but-unfinished when the kill lands.
		"MERLIN_FAULTS=service.worker=delay:400ms",
	)
	// The child's stdout carries its -test.v log and any t.Fatal, so a child
	// that dies at start-up says why.
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// exited is closed once the child has exited; childErr then holds its
	// exit status.
	exited := make(chan struct{})
	var childErr error
	go func() {
		childErr = cmd.Wait()
		close(exited)
	}()
	defer func() {
		_ = cmd.Process.Kill()
		<-exited
	}()

	base := waitForChildURL(t, filepath.Join(dir, "url"), exited, &childErr)

	// Submit jobs with distinct idempotency keys, plus one duplicate submit
	// of the first key — the dedup must hold across the crash.
	type acked struct {
		id   string
		idem string
	}
	var acks []acked
	nets := make([]*net.Net, 5)
	for i := range nets {
		nets[i] = testNet(t, 6, int64(61+i))
		st := submitChildJob(t, base, nets[i], fmt.Sprintf("crash-key-%d", i))
		acks = append(acks, acked{id: st.ID, idem: st.IdempotencyKey})
	}
	dup := submitChildJob(t, base, nets[0], "crash-key-0")
	if dup.ID != acks[0].id {
		t.Fatalf("duplicate submit acked job %s, want %s", dup.ID, acks[0].id)
	}

	// Wait until the first job is done — its result is in the store — then
	// kill without ceremony while later jobs are still queued behind the
	// 400ms worker delay.
	waitChildDone(t, base, acks[0].id, 30*time.Second)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-exited

	// --- Phase 2: inject what a crash can leave behind. ---
	tearJournalTail(t, filepath.Join(dir, "wal"))
	flipStoredResults(t, filepath.Join(dir, "store"))
	tearAuditTail(t, filepath.Join(dir, "audit"))

	// The kill plus the torn line must leave a verifiable audit chain:
	// every acknowledged record intact and in order, the torn tail flagged
	// as the benign crash artifact it is (this is what `merlind
	// -audit-verify -journal-dir DIR` runs).
	preRep, err := trace.VerifyAudit(filepath.Join(dir, "audit"))
	if err != nil {
		t.Fatalf("audit chain broken after crash: %v", err)
	}
	if !preRep.Truncated {
		t.Error("torn audit tail not reported by verification")
	}
	if preRep.Records == 0 {
		t.Error("no acknowledged audit records survived the crash")
	}

	// --- Phase 3: recover in-process and verify. ---
	s, err := NewDurable(Config{Workers: 2, JournalDir: dir})
	if err != nil {
		t.Fatalf("recovery boot: %v", err)
	}
	defer s.Shutdown(context.Background())

	d := s.Stats().Durability
	if d == nil {
		t.Fatal("durable server reports no durability stats")
	}
	if d.ReplayTruncatedBytes == 0 {
		t.Error("torn journal tail was not truncated on replay")
	}

	// Every acknowledged job is present exactly once and reaches a terminal,
	// successful state (the requests were valid; at-least-once may re-run
	// them but must not fail them).
	seen := map[string]bool{}
	for _, a := range acks {
		st := waitTerminal(t, s, a.id, 60*time.Second)
		if st.State != string(JobDone) {
			t.Errorf("job %s recovered into state %s (%s %s), want done", a.id, st.State, st.Code, st.Error)
		}
		if seen[a.id] {
			t.Errorf("job ID %s acknowledged twice", a.id)
		}
		seen[a.id] = true
		got, err := s.JobStatus(context.Background(), a.id)
		if err != nil || got.Result == nil || got.Result.Tree == nil {
			t.Errorf("job %s: no checksum-verified result after recovery: %+v, %v", a.id, got, err)
		}
	}
	// The idempotency mapping survived: resubmitting key 0 with the same
	// body names the original job, never a new one.
	re, created, err := s.SubmitJob(context.Background(), &RouteRequest{Net: nets[0]}, "crash-key-0")
	if err != nil || created || re.ID != acks[0].id {
		t.Errorf("post-crash resubmit: id=%s created=%v err=%v, want %s/false/nil", re.ID, created, err, acks[0].id)
	}
	// The flipped result was caught by its checksum: quarantined and
	// recomputed, not served. (Every stored result was flipped, so at least
	// one quarantine must have happened while re-serving results above.)
	if q := s.store.Stats().Quarantined; q == 0 {
		t.Error("no corrupted store entry was quarantined")
	}

	// --- Phase 4: the recovery itself is audited and the chain still holds. ---
	// Recovery repaired the torn tail and extended the chain with the
	// recovered/started/done lifecycle of every replayed job.
	events := readAuditEvents(t, filepath.Join(dir, "audit"))
	for _, a := range acks {
		if !events[a.id]["accepted"] {
			t.Errorf("job %s has no accepted audit record", a.id)
		}
		if !events[a.id]["done"] {
			t.Errorf("job %s has no done audit record after recovery", a.id)
		}
	}
	var recovered bool
	for _, kinds := range events {
		recovered = recovered || kinds["recovered"]
	}
	if !recovered {
		t.Error("recovery replayed pending jobs but audited no recovered event")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown before tamper check: %v", err)
	}
	postRep, err := trace.VerifyAudit(filepath.Join(dir, "audit"))
	if err != nil {
		t.Fatalf("audit chain broken after recovery: %v", err)
	}
	if postRep.Records <= preRep.Records {
		t.Errorf("recovery extended the chain to %d records, want > %d", postRep.Records, preRep.Records)
	}
	if postRep.Truncated {
		t.Error("torn audit tail still present after recovery repaired it")
	}

	// A flipped bit in an acknowledged record is not a crash artifact — it is
	// tampering, and verification must refuse the chain.
	flipAuditRecord(t, filepath.Join(dir, "audit"))
	if _, err := trace.VerifyAudit(filepath.Join(dir, "audit")); err == nil {
		t.Error("bit-flipped audit record passed verification")
	}
}

// tearAuditTail appends a partial record with no trailing newline to the
// audit log — the artifact of a crash mid-append, which by the append
// protocol was never acknowledged.
func tearAuditTail(t *testing.T, auditDir string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(auditDir, "audit.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("no audit log to tear: %v", err)
	}
	if _, err := f.Write([]byte(`{"seq":99999,"event":"torn-a`)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// readAuditEvents decodes the audit log into job → set of event kinds.
func readAuditEvents(t *testing.T, auditDir string) map[string]map[string]bool {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(auditDir, "audit.log"))
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]map[string]bool{}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec trace.AuditRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("audit line not JSON: %v (%q)", err, line)
		}
		if events[rec.Job] == nil {
			events[rec.Job] = map[string]bool{}
		}
		events[rec.Job][rec.Event] = true
	}
	return events
}

// flipAuditRecord flips one bit inside the first complete audit record.
func flipAuditRecord(t *testing.T, auditDir string) {
	t.Helper()
	path := filepath.Join(auditDir, "audit.log")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[10] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryChild is the re-exec'd victim process: a durable server
// on an ephemeral port that publishes its URL and serves until killed. It is
// a no-op unless MERLIN_CRASH_CHILD gates it in.
func TestCrashRecoveryChild(t *testing.T) {
	if os.Getenv("MERLIN_CRASH_CHILD") == "" {
		t.Skip("crash-test child; only runs re-exec'd")
	}
	dir := os.Getenv("MERLIN_CRASH_DIR")
	s, err := NewDurable(Config{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("child boot: %v", err)
	}
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Publish atomically so the parent never reads a half-written URL.
	tmp := filepath.Join(dir, "url.tmp")
	if err := os.WriteFile(tmp, []byte("http://"+ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "url")); err != nil {
		t.Fatal(err)
	}
	// Serve until SIGKILL; there is no graceful path out of this function.
	_ = http.Serve(ln, s.Handler())
}

// waitForChildURL waits for the child to publish its URL at path. It fails
// at once, with the child's exit status *childErr, if exited closes first.
func waitForChildURL(t *testing.T, path string, exited <-chan struct{}, childErr *error) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return string(b)
		}
		select {
		case <-exited:
			t.Fatalf("child exited before it published its URL: %v", *childErr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("child never published its URL")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func submitChildJob(t *testing.T, base string, n *net.Net, idem string) *JobStatus {
	t.Helper()
	body, err := json.Marshal(&RouteRequest{Net: n})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", idem)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("child submit status %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

func waitChildDone(t *testing.T, base, id string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == string(JobDone) {
			return
		}
		if JobState(st.State).Terminal() {
			t.Fatalf("child job %s ended %s (%s %s)", id, st.State, st.Code, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("child job %s never finished", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// tearJournalTail appends a truncated frame to the newest WAL segment — the
// exact artifact of a crash mid-append.
func tearJournalTail(t *testing.T, walDir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(walDir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments to tear (err=%v)", err)
	}
	sort.Strings(segs) // fixed-width hex names: lexical order == seq order
	newest := segs[len(segs)-1]
	frame := journal.AppendFrame(nil, []byte(`{"t":"accept","id":"j-torn-away"}`))
	f, err := os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-5]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// flipStoredResults flips one payload bit in every stored result, modeling
// latent disk corruption the per-entry checksums must catch.
func flipStoredResults(t *testing.T, storeDir string) {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(storeDir, "*.res"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no stored results to corrupt; the first job's result should be on disk")
	}
	for _, path := range entries {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-2] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
