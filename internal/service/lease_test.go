package service

import (
	"context"
	"encoding/json"
	"fmt"
	stdnet "net"
	"net/http"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"merlin/internal/journal"
)

// TestDrainHandoffReleasesLeases: a draining durable backend journals a
// release record for every job it still owns unfinished and pushes
// "released" manifests to the ring; a peer claims them at a higher term and
// finishes them without waiting for a death verdict the drain will never
// produce. The sync queue is sized one deep so that, of the four accepted
// jobs, at least two are provably still waiting when the drain begins.
func TestDrainHandoffReleasesLeases(t *testing.T) {
	lnA, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnA.Close()
	lnB, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnB.Close()
	urlA := "http://" + lnA.Addr().String()
	urlB := "http://" + lnB.Addr().String()
	ring := func(string) []string { return []string{urlA, urlB} }

	boot := func(self, peer, dir string, workers, queue int) *Server {
		s, err := NewDurable(Config{
			Workers:          workers,
			QueueDepth:       queue,
			JournalDir:       dir,
			GossipSelf:       self,
			GossipPeers:      []string{peer},
			GossipInterval:   50 * time.Millisecond,
			ReplicaSelf:      self,
			ReplicaRing:      ring,
			ReplicaCount:     1,
			TakeoverInterval: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sa := boot(urlA, urlB, t.TempDir(), 1, 1)
	sb := boot(urlB, urlA, t.TempDir(), 2, 0)
	defer sb.Shutdown(context.Background())
	go http.Serve(lnA, sa.Handler())
	go http.Serve(lnB, sb.Handler())

	var ids []string
	for i := 0; i < 4; i++ {
		resp := postJSON(t, urlA+"/v1/jobs", &RouteRequest{Net: testNet(t, 6, int64(8100+i)), MaxLoops: 1})
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.ID == "" {
			t.Fatalf("submit %d: status %d (%v)", i, resp.StatusCode, err)
		}
		resp.Body.Close()
		ids = append(ids, st.ID)
	}

	// Drain immediately: one job is in the worker, one in the queue slot;
	// the rest are spinning on queue_full and must be released to the ring.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sa.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := sa.Stats().Counters["jobs.lease_released"]; got == 0 {
		t.Fatal("drain released no leases; expected the queue-starved jobs handed to the ring")
	}

	// Every acknowledged job reaches a truthful terminal state on the peer:
	// the ones the victim finished are replica-served, the released ones are
	// claimed and computed by the peer itself.
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range ids {
		for {
			var st JobStatus
			resp, err := hc.Get(urlB + "/v1/jobs/" + id)
			if err == nil {
				derr := json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if derr == nil && JobState(st.State).Terminal() {
					if st.State == string(JobFailed) {
						t.Fatalf("job %s failed after handoff: %s", id, st.Error)
					}
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never reached a terminal state on the peer (last: %+v)", id, st)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	if got := sb.Stats().Counters["jobs.takeovers"]; got == 0 {
		t.Fatal("peer recorded no takeovers; released leases were never claimed")
	}
}

// TestRecoveredJobResumesAtCheckpoint: a job that checkpointed at the lttree
// rung before a crash resumes there on recovery instead of recomputing the
// full and nobubble tiers above it. The WAL is written record by record as
// older servers wrote it — the accept record with an expiry ("exp"), the
// ckpt record with an attempt count — so the test also shows that such a
// WAL still replays.
func TestRecoveredJobResumesAtCheckpoint(t *testing.T) {
	dir := t.TempDir()
	req := &RouteRequest{Net: testNet(t, 6, 61), MaxLoops: 1, AllowDegraded: true}
	reqJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(filepath.Join(dir, "wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Replay(func(journal.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	const id = "j-ckpt-resume"
	for _, rec := range []string{
		fmt.Sprintf(`{"t":"accept","id":%q,"req":%s,"owner":"local","term":1,"exp":1760000003000}`, id, reqJSON),
		fmt.Sprintf(`{"t":"ckpt","id":%q,"term":1,"rung":"lttree","attempt":1}`, id),
	} {
		if err := j.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := NewDurable(Config{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	st := waitTerminal(t, s, id, 30*time.Second)
	if st.State != string(JobDegraded) || !st.Recovered {
		t.Fatalf("recovered job: state %s, recovered %v; want degraded, recovered", st.State, st.Recovered)
	}
	if st.Result == nil {
		t.Fatal("recovered job carries no result")
	}
	if st.Result.Tier != "lttree" || !slices.Equal(st.Result.TiersAttempted, []string{"lttree"}) {
		t.Fatalf("recovered job served by tier %q after trying %v; want lttree after [lttree]",
			st.Result.Tier, st.Result.TiersAttempted)
	}
}
