package router

import (
	"bytes"
	"encoding/json"
	"io"
	stdnet "net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"merlin/internal/journal"
	"merlin/internal/service"
)

// TestFailoverChaos is the job-failover acceptance drill: three durable,
// gossiping, replicating merlind backends with orphan takeover enabled, one
// of which is SIGKILLed while holding acknowledged-but-unfinished jobs — and
// is NEVER restarted. Every acknowledged job must still reach a truthful
// terminal state, served by a survivor that claimed the orphaned lease at a
// higher term; a poll through the router must never say 404 and never wait
// for the dead owner to come back. Afterwards the three write-ahead logs are
// replayed and judged: every job the victim acknowledged has a journaled
// terminal record somewhere in the fleet, and no job was ever acknowledged
// twice — no two terminal records at the same term from different owners.
func TestFailoverChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess failover drill; skipped in -short")
	}

	addrs, dirs, backends := reserveFailoverFleet(t, 3)
	ring := strings.Join(backends, ",")
	children := make([]*drillChild, len(backends))
	for i := range children {
		// A per-job delay keeps a queue of acknowledged-but-unfinished work
		// behind the workers, so the SIGKILL provably lands on acked jobs.
		children[i] = startFailoverChild(t, addrs[i], dirs[i],
			failoverPeersOf(backends, nil, backends[i]), ring, "service.worker=delay:100ms")
	}
	defer killDrillChildren(children)
	for i, b := range backends {
		children[i].waitReady(t, b, 30*time.Second)
	}

	// Router in front, gossiping with the backends so the claimant-aware
	// poll path (owner → claimant → scatter) is live.
	routerLn, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	routerURL := "http://" + routerLn.Addr().String()
	rt, err := New(Config{
		Backends:         backends,
		FailureThreshold: 3,
		EjectBase:        100 * time.Millisecond,
		EjectMax:         500 * time.Millisecond,
		MaxAttempts:      3,
		GossipSelf:       routerURL,
		GossipPeers:      backends,
		GossipInterval:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewUnstartedServer(rt.Handler())
	ts.Listener.Close()
	ts.Listener = routerLn
	ts.Start()
	defer ts.Close()
	hc := &http.Client{Timeout: 30 * time.Second}

	// A death verdict needs life evidence first: every backend must have
	// learned every other backend alive before the kill, or the victim's
	// silence is indistinguishable from never having existed.
	waitFailoverGossip(t, hc, backends)

	// Load the victim with a backlog of acknowledged jobs (directly, so
	// ownership is certain), plus a spread through the router.
	victim := backends[0]
	var acked []string
	for i := 0; i < 24; i++ {
		acked = append(acked, submitFailoverJob(t, hc, victim, int64(9000+i)))
	}
	for i := 0; i < 8; i++ {
		acked = append(acked, submitFailoverJob(t, hc, ts.URL, int64(9500+i)))
	}

	// Manifest push is async and lossy by design — a manifest still sitting
	// in the victim's replication queue dies with it, and that job is then
	// legitimately unrecoverable. This drill is about takeover, not manifest
	// loss, so let the queue drain before pulling the plug.
	waitFailoverCond(t, 20*time.Second, "victim replication queue drained", func() bool {
		st := failoverBackendStats(t, hc, victim)
		return st.Durability != nil && st.Durability.Replication != nil &&
			st.Durability.Replication.Pending == 0
	})

	// SIGKILL the victim while its queue is deep. It never comes back.
	if err := children[0].cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-children[0].done
	children[0] = nil

	// Every acknowledged job reaches a truthful terminal state through the
	// router — without the dead owner. 404 at any point means an acked job
	// was lost; a non-done terminal means a verdict was fabricated.
	deadline := time.Now().Add(90 * time.Second)
	for _, id := range acked {
		for {
			resp, err := hc.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatalf("poll %s: %v", id, err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound {
				t.Fatalf("acknowledged job %s polled as 404: an acked job was lost", id)
			}
			if resp.StatusCode == http.StatusOK {
				var st service.JobStatus
				if err := json.Unmarshal(raw, &st); err != nil {
					t.Fatalf("poll %s: %v (%s)", id, err, raw)
				}
				if st.State == string(service.JobDone) || st.State == string(service.JobDegraded) {
					if st.Result == nil {
						t.Fatalf("job %s ended %s without its result", id, st.State)
					}
					break
				}
				if service.JobState(st.State).Terminal() {
					t.Fatalf("job %s ended %s (%s %s), want done", id, st.State, st.Code, st.Error)
				}
			}
			if time.Now().After(deadline) {
				for _, b := range backends[1:] {
					st := failoverBackendStats(t, hc, b)
					var lease []byte
					if st.Durability != nil {
						lease, _ = json.Marshal(st.Durability.Leases)
					}
					jr, err := hc.Get(b + "/v1/jobs/" + id)
					jraw := []byte("unreachable")
					if err == nil {
						jraw, _ = io.ReadAll(jr.Body)
						jr.Body.Close()
					}
					gv, _ := json.Marshal(st.Gossip)
					t.Logf("survivor %s: takeovers=%d fenced=%d leases=%s job=%s gossip=%s",
						b, st.Counters["jobs.takeovers"], st.Counters["jobs.fenced"], lease, jraw, gv)
				}
				t.Fatalf("acknowledged job %s never reached terminal after the owner died", id)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	// The survivors must have actually taken orphans over (not merely served
	// results the victim managed to replicate before dying).
	takeovers := uint64(0)
	for _, b := range backends[1:] {
		st := failoverBackendStats(t, hc, b)
		takeovers += st.Counters["jobs.takeovers"]
	}
	if takeovers == 0 {
		t.Error("no survivor recorded a takeover; the victim's backlog should have been orphaned")
	}
	var rst Stats
	resp, err := hc.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&rst)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("takeovers=%d router claimant_polls=%d", takeovers, rst.Counters["jobs.claimant_polls"])

	// Freeze the fleet (SIGKILL — a graceful shutdown would compact the
	// WALs we are about to judge) and inspect the journals.
	killDrillChildren(children)
	recs := map[string][]leaseWALRecord{}
	for i, d := range dirs {
		recs[backends[i]] = replayLeaseWAL(t, d)
	}
	assertNoDualAck(t, recs)

	// Every job the victim acknowledged has a terminal record somewhere.
	terminal := map[string]bool{}
	for _, rs := range recs {
		for _, r := range rs {
			if r.T == "done" || r.T == "fail" {
				terminal[r.ID] = true
			}
		}
	}
	missing := 0
	for _, r := range recs[victim] {
		if r.T == "accept" && !terminal[r.ID] {
			t.Errorf("victim-acked job %s has no journaled terminal record anywhere", r.ID)
			missing++
		}
	}
	if missing == 0 {
		t.Logf("all victim-acked jobs journaled terminal across %d WALs", len(recs))
	}
}

// TestFencingSplitBrain is the split-brain half of the drill: the owner is
// SIGSTOPped mid-job (partitioned: silent but alive, journal intact), a
// successor claims the orphan at a higher term and finishes it, then the owner
// thaws and finishes the SAME job at its stale term 1. The resurrected
// owner's result push must be rejected by the fencing token check at the
// replica write, the claimant must keep serving its result, and the WALs
// must show the claim at the higher term with no dual acknowledgement.
func TestFencingSplitBrain(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fencing drill; skipped in -short")
	}

	addrs, dirs, backends := reserveFailoverFleet(t, 3)
	ring := strings.Join(backends, ",")
	children := make([]*drillChild, len(backends))
	for i := range children {
		faults := "" // peers compute instantly, so the claim finishes fast
		if i == 0 {
			// The victim's worker sleeps long enough for the stop, the death
			// verdict, and the takeover to land before it would finish; the
			// monotonic clock runs through a SIGSTOP, so after SIGCONT the
			// sleep returns immediately and the stale-term finish races out.
			faults = "service.worker=delay:2500ms"
		}
		children[i] = startFailoverChild(t, addrs[i], dirs[i],
			failoverPeersOf(backends, nil, backends[i]), ring, faults)
	}
	defer killDrillChildren(children)
	for i, b := range backends {
		children[i].waitReady(t, b, 30*time.Second)
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	victim, peers := backends[0], backends[1:]
	waitFailoverGossip(t, hc, backends)

	// One job, owned by the victim, provably in flight.
	id := submitFailoverJob(t, hc, victim, 7777)

	// The accept-time manifest must land on the successors before the
	// partition — takeover needs the request body to recompute from.
	waitFailoverCond(t, 10*time.Second, "manifest on a peer", func() bool {
		for _, p := range peers {
			if resp, err := hc.Get(p + "/v1/jobs/" + id); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return true
				}
			}
		}
		return false
	})

	// Partition the owner: frozen mid-sleep, silent to gossip.
	if err := children[0].cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}

	// A successor declares the owner dead, claims at a higher term, recomputes,
	// and serves the result.
	var claimant string
	waitFailoverCond(t, 30*time.Second, "claimant serving the orphan done", func() bool {
		for _, p := range peers {
			resp, err := hc.Get(p + "/v1/jobs/" + id)
			if err != nil {
				continue
			}
			var st service.JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil && st.State == string(service.JobDone) && st.Result != nil {
				claimant = p
				return true
			}
		}
		return false
	})

	// Thaw the owner: its worker wakes, finishes the job at stale term 1,
	// and pushes the result — which the fenced replica write must reject.
	if err := children[0].cmd.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}
	waitFailoverCond(t, 20*time.Second, "stale-term push fenced", func() bool {
		st := failoverBackendStats(t, hc, victim)
		if st.Durability != nil && st.Durability.Replication != nil &&
			st.Durability.Replication.PushFenced > 0 {
			return true
		}
		// The owner may instead have adopted the gossiped claim in time and
		// fenced its own finish locally — equally split-brain-safe.
		return st.Counters["jobs.fenced"] > 0
	})
	fenced := uint64(0)
	for _, p := range peers {
		fenced += failoverBackendStats(t, hc, p).Counters["replica.fenced"]
	}
	t.Logf("replica-side fenced writes on peers: %d", fenced)

	// The claimant still serves its own acknowledged result.
	resp, err := hc.Get(claimant + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.State != string(service.JobDone) || st.Result == nil {
		t.Fatalf("claimant poll after the stale finish = %+v (%v), want done with result", st, err)
	}

	// Journal verdict: the claimant holds the claim and the terminal at a
	// term above 1, and nowhere did two owners acknowledge the same term.
	killDrillChildren(children)
	recs := map[string][]leaseWALRecord{}
	for i, d := range dirs {
		recs[backends[i]] = replayLeaseWAL(t, d)
	}
	assertNoDualAck(t, recs)
	var claimTerm, doneTerm uint64
	for _, b := range peers {
		for _, r := range recs[b] {
			if r.ID != id {
				continue
			}
			if r.T == "claim" && r.Term > claimTerm {
				claimTerm = r.Term
			}
			if (r.T == "done" || r.T == "fail") && r.Term > doneTerm {
				doneTerm = r.Term
			}
		}
	}
	if claimTerm < 2 {
		t.Errorf("no journaled claim above term 1 on any successor (got %d)", claimTerm)
	}
	if doneTerm < claimTerm {
		t.Errorf("claimant's terminal record at term %d below its claim at term %d", doneTerm, claimTerm)
	}
}

// leaseWALRecord is the lease-bearing subset of the service's WAL record
// shape, decoded straight from replayed payloads.
type leaseWALRecord struct {
	T     string `json:"t"`
	ID    string `json:"id"`
	State string `json:"state"`
	Owner string `json:"owner"`
	Term  uint64 `json:"term"`
}

// replayLeaseWAL replays the WAL under a (dead) backend's journal dir and
// returns its records. Records without a "t" (snapshots) are skipped.
func replayLeaseWAL(t *testing.T, dir string) []leaseWALRecord {
	t.Helper()
	j, err := journal.Open(filepath.Join(dir, "wal"), journal.Options{})
	if err != nil {
		t.Fatalf("open WAL under %s: %v", dir, err)
	}
	defer j.Close()
	var recs []leaseWALRecord
	if _, err := j.Replay(func(rec journal.Record) error {
		var r leaseWALRecord
		if json.Unmarshal(rec.Payload, &r) == nil && r.T != "" {
			recs = append(recs, r)
		}
		return nil
	}); err != nil {
		t.Fatalf("replay WAL under %s: %v", dir, err)
	}
	return recs
}

// assertNoDualAck is the exactly-once verdict: across every WAL in the
// fleet, no job has terminal records at the same term from different owners
// — a second acknowledgement is only legal after a journaled claim moved
// the lease to a higher term.
func assertNoDualAck(t *testing.T, recs map[string][]leaseWALRecord) {
	t.Helper()
	type ack struct {
		node  string
		owner string
	}
	byJobTerm := map[string]map[uint64]ack{}
	for node, rs := range recs {
		for _, r := range rs {
			if r.T != "done" && r.T != "fail" {
				continue
			}
			terms := byJobTerm[r.ID]
			if terms == nil {
				terms = map[uint64]ack{}
				byJobTerm[r.ID] = terms
			}
			if prev, ok := terms[r.Term]; ok && prev.owner != r.Owner {
				t.Errorf("dual acknowledgement: job %s terminal at term %d by both %q (in %s) and %q (in %s)",
					r.ID, r.Term, prev.owner, prev.node, r.Owner, node)
				continue
			}
			terms[r.Term] = ack{node: node, owner: r.Owner}
		}
	}
}

// reserveFailoverFleet pre-binds n backend addresses (gossip mesh and
// replica ring are built from URLs that must exist before any process
// boots) and allocates their journal dirs.
func reserveFailoverFleet(t *testing.T, n int) (addrs, dirs, urls []string) {
	t.Helper()
	for i := 0; i < n; i++ {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		ln.Close()
		dirs = append(dirs, t.TempDir())
		urls = append(urls, "http://"+addrs[i])
	}
	return addrs, dirs, urls
}

// failoverPeersOf lists every fleet URL except self, for gossip seeding.
func failoverPeersOf(backends, routers []string, self string) string {
	var ps []string
	for _, u := range append(append([]string(nil), backends...), routers...) {
		if u != self {
			ps = append(ps, u)
		}
	}
	return strings.Join(ps, ",")
}

// submitFailoverJob POSTs one job and returns its acknowledged ID.
func submitFailoverJob(t *testing.T, hc *http.Client, base string, seed int64) string {
	t.Helper()
	resp, err := hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(clusterRouteBody(seed)))
	if err != nil {
		t.Fatalf("submit job: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit job: status %d (%s)", resp.StatusCode, raw)
	}
	var st service.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil || st.ID == "" {
		t.Fatalf("submit job: no ID in %s (%v)", raw, err)
	}
	return st.ID
}

// failoverBackendStats fetches one backend's /v1/stats.
func failoverBackendStats(t *testing.T, hc *http.Client, base string) service.Stats {
	t.Helper()
	resp, err := hc.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("stats %s: %v", base, err)
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats %s: %v", base, err)
	}
	return st
}

// waitFailoverGossip waits until every backend's gossip view holds every
// other backend as alive — the life evidence the suspicion timers need
// before a kill can ever produce a death verdict.
func waitFailoverGossip(t *testing.T, hc *http.Client, backends []string) {
	t.Helper()
	waitFailoverCond(t, 15*time.Second, "initial gossip convergence", func() bool {
		for _, b := range backends {
			st := failoverBackendStats(t, hc, b)
			if st.Gossip == nil {
				return false
			}
			alive := map[string]bool{}
			for _, m := range st.Gossip.Members {
				if m.State == "alive" {
					alive[m.Node] = true
				}
			}
			for _, other := range backends {
				if other != b && !alive[other] {
					return false
				}
			}
		}
		return true
	})
}

// waitFailoverCond polls pred until it holds or the deadline passes.
func waitFailoverCond(t *testing.T, within time.Duration, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// startFailoverChild re-execs this test binary as one gossiping,
// replicating, takeover-enabled durable merlind backend.
func startFailoverChild(t *testing.T, addr, dir, peers, ring, faults string) *drillChild {
	t.Helper()
	return startDrillChild(t, "TestFailoverChaosChild",
		"MERLIN_FAILOVER_CHILD=1",
		"MERLIN_FAILOVER_ADDR="+addr,
		"MERLIN_FAILOVER_DIR="+dir,
		"MERLIN_FAILOVER_PEERS="+peers,
		"MERLIN_FAILOVER_RING="+ring,
		"MERLIN_FAULTS="+faults,
	)
}

// TestFailoverChaosChild is the re-exec'd backend: a durable merlind that
// gossips at 100ms, replicates results and job manifests onto the ring, and
// sweeps for orphaned leases every 150ms. A no-op unless
// MERLIN_FAILOVER_CHILD gates it in.
func TestFailoverChaosChild(t *testing.T) {
	if os.Getenv("MERLIN_FAILOVER_CHILD") == "" {
		t.Skip("failover-chaos child; only runs re-exec'd")
	}
	self := "http://" + os.Getenv("MERLIN_FAILOVER_ADDR")
	ring, err := NewRing(strings.Split(os.Getenv("MERLIN_FAILOVER_RING"), ","), 0)
	if err != nil {
		t.Fatalf("child ring: %v", err)
	}
	s, err := service.NewDurable(service.Config{
		Workers:          2,
		JournalDir:       os.Getenv("MERLIN_FAILOVER_DIR"),
		GossipSelf:       self,
		GossipPeers:      strings.Split(os.Getenv("MERLIN_FAILOVER_PEERS"), ","),
		GossipInterval:   100 * time.Millisecond,
		ReplicaRing:      ring.PickString,
		ReplicaSelf:      self,
		ReplicaCount:     2,
		TakeoverInterval: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("child boot: %v", err)
	}
	ln, err := stdnet.Listen("tcp", os.Getenv("MERLIN_FAILOVER_ADDR"))
	if err != nil {
		t.Fatalf("child bind: %v", err)
	}
	// Serve until SIGKILL; no graceful path out — the parent judges the WAL
	// exactly as a crash left it.
	_ = http.Serve(ln, s.Handler())
}
