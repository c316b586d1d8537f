package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	stdnet "net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"merlin/internal/qos"
	"merlin/internal/service"
)

// partitionGrace is how long a partitioning child keeps serving after
// acking /ctl/partition: long enough for in-flight requests to finish (so
// nothing hangs on a frozen socket), short enough that the drill's
// convergence clock — started after this grace — is honest.
const partitionGrace = 250 * time.Millisecond

// TestPartitionChaos is the gossip/replication acceptance drill: a 5-node
// fleet — two in-process routers and three re-exec'd durable merlind
// backends, all gossiping at 100ms — under concurrent multi-tenant load,
// while one backend is partitioned (listener closed, process SIGSTOPped:
// gossip-reachable to no one, journal intact) and another is SIGKILLed.
// The drill asserts the fleet coordinates truthfully:
//
//   - both routers' gossip views converge on each failure (the victim
//     leaves Alive) within 2s of the node going silent;
//   - the fleet brownout raises on both routers while the lone survivor
//     saturates, and recovers to level 0 after the fleet heals;
//   - every response stays truthful: correct answers or retryable errors
//     with honest codes — never a hang, a bare 500, or a fabricated 404;
//   - every acknowledged job completes with its result (done, or degraded
//     with the tier drop annotated), and jobs owned by the partitioned
//     backend — which never serves again — are answered from replicas
//     (the poll says so via the truthful "replica" flag).
func TestPartitionChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fleet drill; skipped in -short")
	}

	// --- Reserve the fleet's addresses up front: the gossip mesh and the
	// replica ring are both built from URLs that must exist before any
	// process boots. Backend listeners are re-bound by the children; router
	// listeners stay open and are handed to httptest. ---
	const nBackends = 3
	backendAddrs := make([]string, nBackends)
	dirs := make([]string, nBackends)
	for i := range backendAddrs {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		backendAddrs[i] = ln.Addr().String()
		ln.Close()
		dirs[i] = t.TempDir()
	}
	backends := make([]string, nBackends)
	for i, a := range backendAddrs {
		backends[i] = "http://" + a
	}
	routerLns := make([]stdnet.Listener, 2)
	routerURLs := make([]string, 2)
	for i := range routerLns {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		routerLns[i] = ln
		routerURLs[i] = "http://" + ln.Addr().String()
	}

	// --- Boot the three durable backends: each gossips with everyone else
	// and replicates results to its R=2 ring successors. ---
	ring := strings.Join(backends, ",")
	peersOf := func(self string) string {
		var ps []string
		for _, u := range append(append([]string(nil), backends...), routerURLs...) {
			if u != self {
				ps = append(ps, u)
			}
		}
		return strings.Join(ps, ",")
	}
	children := make([]*drillChild, nBackends)
	for i := range children {
		children[i] = startPartitionChild(t, backendAddrs[i], dirs[i], peersOf(backends[i]), ring)
	}
	defer killDrillChildren(children)
	for i, b := range backends {
		children[i].waitReady(t, b, 30*time.Second)
	}

	// --- Two routers in front, gossiping with the backends, coordinating
	// brownout fleet-wide. FleetHighWater 0.6 so one saturated survivor
	// provably raises the level. ---
	routers := make([]*Router, 2)
	fronts := make([]*httptest.Server, 2)
	for i := range routers {
		rt, err := New(Config{
			Backends:         backends,
			FailureThreshold: 3,
			EjectBase:        100 * time.Millisecond,
			EjectMax:         500 * time.Millisecond,
			MaxAttempts:      3,
			QoS:              qos.Config{Rate: 300, Burst: 600, MaxConcurrent: 64},
			GossipSelf:       routerURLs[i],
			GossipPeers:      backends,
			GossipInterval:   100 * time.Millisecond,
			FleetBrownout:    true,
			FleetHighWater:   0.6,
			FleetLowWater:    0.3,
			FleetCooldown:    2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		ts := httptest.NewUnstartedServer(rt.Handler())
		ts.Listener.Close()
		ts.Listener = routerLns[i]
		ts.Start()
		defer ts.Close()
		routers[i] = rt
		fronts[i] = ts
	}
	hc := &http.Client{Timeout: 30 * time.Second}

	// waitStats polls one router's /v1/stats until pred holds.
	waitStats := func(front *httptest.Server, what string, within time.Duration, pred func(Stats) bool) {
		t.Helper()
		deadline := time.Now().Add(within)
		for {
			resp, err := hc.Get(front.URL + "/v1/stats")
			if err != nil {
				t.Fatalf("stats: %v", err)
			}
			var st Stats
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("stats decode: %v", err)
			}
			if pred(st) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s on %s", what, front.URL)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// memberState finds a gossiped member's state in a stats snapshot.
	memberState := func(st Stats, node string) string {
		if st.Gossip == nil {
			return ""
		}
		for _, m := range st.Gossip.Members {
			if m.Node == node {
				return m.State
			}
		}
		return ""
	}

	// Both routers must see all three backends alive before any failure:
	// convergence-on-failure means nothing if the view never converged on
	// health first.
	for _, front := range fronts {
		waitStats(front, "initial gossip convergence", 10*time.Second, func(st Stats) bool {
			for _, b := range backends {
				if memberState(st, b) != "alive" {
					return false
				}
			}
			return true
		})
	}

	// --- The storm: concurrent tenants posting routes and jobs through
	// both routers for the whole drill. ---
	type outcome struct {
		path   string
		status int
		code   string
	}
	var (
		outMu    sync.Mutex
		outcomes []outcome
		acked    []string
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	tenants := []string{"acme", "initech", "hooli", ""}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			front := fronts[g%2]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				seed := int64(g*10000 + i)
				path := "/v1/route"
				if i%3 == 0 {
					path = "/v1/jobs"
				}
				req, err := http.NewRequest(http.MethodPost, front.URL+path, bytes.NewReader(clusterRouteBody(seed)))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				if tn := tenants[g%len(tenants)]; tn != "" {
					req.Header.Set(service.TenantHeader, tn)
				}
				resp, err := hc.Do(req)
				if err != nil {
					t.Errorf("router dropped %s: %v", path, err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				o := outcome{path: path, status: resp.StatusCode}
				if resp.StatusCode >= 400 {
					var eb service.ErrorBody
					_ = json.Unmarshal(raw, &eb)
					o.code = eb.Code
				} else if path == "/v1/jobs" {
					var st service.JobStatus
					if json.Unmarshal(raw, &st) == nil && st.ID != "" {
						outMu.Lock()
						acked = append(acked, st.ID)
						outMu.Unlock()
					}
				}
				outMu.Lock()
				outcomes = append(outcomes, o)
				outMu.Unlock()
				time.Sleep(5 * time.Millisecond)
			}
		}(g)
	}

	// Healthy load first, so every backend owns some acknowledged jobs.
	time.Sleep(600 * time.Millisecond)

	// --- Partition backends[1]: it closes its listener and freezes, so it
	// can neither speak nor be spoken to — but its journal and queue
	// survive. Both routers must converge off Alive within 2s of silence. ---
	partitioned := backends[1]
	resp, err := hc.Post(partitioned+"/ctl/partition", "", nil)
	if err != nil {
		t.Fatalf("partition control: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("partition control: status %d", resp.StatusCode)
	}
	time.Sleep(partitionGrace + 50*time.Millisecond) // the node is silent from here
	for _, front := range fronts {
		waitStats(front, "gossip convergence on the partition", 2*time.Second, func(st Stats) bool {
			s := memberState(st, partitioned)
			return s != "" && s != "alive"
		})
	}

	// --- SIGKILL backends[2] mid-storm: same 2s convergence bound. ---
	killed := backends[2]
	if err := children[2].cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-children[2].done
	children[2] = nil
	for _, front := range fronts {
		waitStats(front, "gossip convergence on the kill", 2*time.Second, func(st Stats) bool {
			s := memberState(st, killed)
			return s != "" && s != "alive"
		})
	}

	// --- Fleet brownout raise: the lone survivor's queue saturates under
	// the whole storm; its gossiped pressure must raise the level on BOTH
	// routers (dead members are excluded, so the mean is the survivor). ---
	for _, front := range fronts {
		waitStats(front, "fleet brownout raise", 20*time.Second, func(st Stats) bool {
			return st.Fleet != nil && st.Fleet.Level >= 1 && st.Fleet.Raised >= 1
		})
	}

	// --- Heal: thaw the partitioned backend (it drains its acknowledged
	// queue and replicates results outbound, but never serves again — its
	// listener is gone), and restart the killed one over its journal. ---
	if err := children[1].cmd.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}
	children[2] = startPartitionChild(t, backendAddrs[2], dirs[2], peersOf(killed), ring)
	children[2].waitReady(t, killed, 30*time.Second)

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	// --- Fleet brownout recovery: with the storm over and two backends
	// serving again, both routers must walk the level back to 0 through
	// the cooldown. ---
	for _, front := range fronts {
		waitStats(front, "fleet brownout recovery", 30*time.Second, func(st Stats) bool {
			return st.Fleet != nil && st.Fleet.Level == 0 && st.Fleet.Lowered >= 1
		})
	}

	// --- Judge every outcome: correct answers or truthful retryable
	// errors, nothing else. ---
	counts := map[string]int{}
	for _, o := range outcomes {
		key := fmt.Sprintf("%s %d %s", o.path, o.status, o.code)
		counts[key]++
		switch {
		case o.status == http.StatusOK || o.status == http.StatusAccepted:
		case o.status == http.StatusTooManyRequests:
			if o.code != "tenant_rate_limited" && o.code != "tenant_concurrency" && o.code != "queue_full" {
				t.Errorf("429 with untruthful code %q", o.code)
			}
		case o.status == http.StatusServiceUnavailable:
			if o.code == "" {
				t.Errorf("503 without an error code is not a truthful retryable error")
			}
		default:
			t.Errorf("outcome %s: neither a correct response nor a truthful retryable error", key)
		}
	}
	t.Logf("storm outcomes: %v", counts)
	if len(acked) == 0 {
		t.Fatal("storm acknowledged no jobs; drill proves nothing")
	}

	// --- Zero lost acknowledged jobs, the fleet provably serving them for
	// the dead and partitioned owners: every acked ID completes through a
	// router with its result inline — "done", or "degraded" when the
	// browned-out survivor truthfully annotated the tier drop. The
	// partitioned backend never serves again, so its jobs can only be
	// answered by the survivors — either from a replicated result (the
	// truthful replica flag) or recomputed under a takeover claim (the
	// survivors' jobs.takeovers counters). A 404 at any point means an
	// acked job was lost; "failed" means a verdict was fabricated under
	// load. ---
	replicaServed := 0
	deadline := time.Now().Add(90 * time.Second)
	for i, id := range acked {
		front := fronts[i%2]
		for {
			resp, err := hc.Get(front.URL + "/v1/jobs/" + id)
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
						t.Fatalf("acknowledged job %s ended %s without its result", id, st.State)
					}
					if st.Replica {
						replicaServed++
					}
					break
				}
				if service.JobState(st.State).Terminal() {
					t.Fatalf("acknowledged job %s ended %s (%s %s), want done", id, st.State, st.Code, st.Error)
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("acknowledged job %s never reached done", id)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	var takeovers uint64
	for _, b := range []string{backends[0], killed} {
		st := failoverBackendStats(t, hc, b)
		if st.Durability != nil && st.Durability.Leases != nil {
			takeovers += st.Durability.Leases.Takeovers
		}
	}
	if replicaServed == 0 && takeovers == 0 {
		t.Error("the partitioned backend's jobs were neither replica-served nor reclaimed; survivors should show one or the other")
	}
	t.Logf("all %d acknowledged jobs reached done; %d served from replicas, %d takeovers on survivors",
		len(acked), replicaServed, takeovers)
}

// startPartitionChild re-execs this test binary as one gossiping, replicating
// durable merlind backend.
func startPartitionChild(t *testing.T, addr, dir, peers, ring string) *drillChild {
	t.Helper()
	return startDrillChild(t, "TestPartitionChaosChild",
		"MERLIN_PARTITION_CHILD=1",
		"MERLIN_PARTITION_ADDR="+addr,
		"MERLIN_PARTITION_DIR="+dir,
		"MERLIN_PARTITION_PEERS="+peers,
		"MERLIN_PARTITION_RING="+ring,
		// A per-job delay keeps a queue of acknowledged-but-unfinished work
		// behind the workers, so the failures provably land on acked jobs
		// and the survivor's queue utilization provably saturates.
		"MERLIN_FAULTS=service.worker=delay:50ms",
	)
}

// TestPartitionChaosChild is the re-exec'd backend: a durable merlind server
// that gossips with the fleet, replicates results onto the backend ring, and
// exposes POST /ctl/partition — which stops serving (closing every
// connection) and freezes the process, simulating a network partition with
// the journal intact. A no-op unless MERLIN_PARTITION_CHILD gates it in.
func TestPartitionChaosChild(t *testing.T) {
	if os.Getenv("MERLIN_PARTITION_CHILD") == "" {
		t.Skip("partition-chaos child; only runs re-exec'd")
	}
	self := "http://" + os.Getenv("MERLIN_PARTITION_ADDR")
	ring, err := NewRing(strings.Split(os.Getenv("MERLIN_PARTITION_RING"), ","), 0)
	if err != nil {
		t.Fatalf("child ring: %v", err)
	}
	s, err := service.NewDurable(service.Config{
		Workers:        2,
		JournalDir:     os.Getenv("MERLIN_PARTITION_DIR"),
		GossipSelf:     self,
		GossipPeers:    strings.Split(os.Getenv("MERLIN_PARTITION_PEERS"), ","),
		GossipInterval: 100 * time.Millisecond,
		ReplicaRing:    ring.PickString,
		ReplicaSelf:    self,
		ReplicaCount:   2,
	})
	if err != nil {
		t.Fatalf("child boot: %v", err)
	}
	ln, err := stdnet.Listen("tcp", os.Getenv("MERLIN_PARTITION_ADDR"))
	if err != nil {
		t.Fatalf("child bind: %v", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	srv := &http.Server{Handler: mux}
	mux.HandleFunc("POST /ctl/partition", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
		go func() {
			// Serve out the grace (in-flight work finishes, the ack
			// flushes), then cut every connection and freeze: from the
			// fleet's view this node vanishes mid-conversation.
			time.Sleep(partitionGrace)
			_ = srv.Close()
			_ = syscall.Kill(syscall.Getpid(), syscall.SIGSTOP)
		}()
	})
	// Serve until partitioned or SIGKILLed; after a partition the process
	// stays alive (frozen, then thawed by the parent) so its workers can
	// finish the acknowledged queue and replicate the results outbound.
	_ = srv.Serve(ln)
	select {}
}
