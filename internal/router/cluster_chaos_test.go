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
	"os/exec"
	"sync"
	"syscall"
	"testing"
	"time"

	"merlin/internal/qos"
	"merlin/internal/service"
)

// TestClusterChaos is the router's acceptance drill: three real merlind
// processes (this test binary re-exec'd, each with its own durable journal)
// behind an in-process router, under concurrent multi-tenant load, while
// one backend is SIGKILLed mid-storm and later restarted at the same
// address with the same journal. The drill asserts the fleet degrades
// truthfully, not silently:
//
//   - every request the router accepts gets a correct (possibly degraded)
//     response or a truthful retryable error (429 with Retry-After, 503
//     no_ready_backend) — never a hang, a bare 500, or a bogus verdict;
//   - the victim's breaker is observed opening and then half-open-
//     recovering via /v1/stats;
//   - zero acknowledged jobs are lost: every 202-acked job reaches "done"
//     after the victim restarts and replays its WAL — a poll while the
//     owner is down says 503 retry, never 404 lost.
func TestClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster drill; skipped in -short")
	}

	// --- Boot three durable backends at pre-reserved addresses (the victim
	// must restart at the SAME URL so the ring never changes). ---
	const nBackends = 3
	addrs := make([]string, nBackends)
	dirs := make([]string, nBackends)
	for i := range addrs {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
		dirs[i] = t.TempDir()
	}
	children := make([]*drillChild, nBackends)
	for i := range children {
		children[i] = startClusterChild(t, addrs[i], dirs[i])
	}
	defer killDrillChildren(children)
	backends := make([]string, nBackends)
	for i, a := range addrs {
		backends[i] = "http://" + a
		children[i].waitReady(t, backends[i], 30*time.Second)
	}

	// --- Router in front, tuned for a fast drill: quick ejection, moderate
	// per-tenant QoS. ---
	rt, err := New(Config{
		Backends:         backends,
		FailureThreshold: 3,
		EjectBase:        100 * time.Millisecond,
		EjectMax:         500 * time.Millisecond,
		MaxAttempts:      3,
		QoS:              qos.Config{Rate: 300, Burst: 600, MaxConcurrent: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	hc := &http.Client{Timeout: 30 * time.Second}

	// --- The storm: concurrent tenants posting routes and submitting jobs
	// through the router for the whole drill. Every outcome is recorded and
	// judged at the end. ---
	type outcome struct {
		path   string
		status int
		code   string // ErrorBody.Code for non-2xx
	}
	var (
		outMu    sync.Mutex
		outcomes []outcome
		acked    []string // job IDs the router acknowledged (202/200 + id)
	)
	record := func(o outcome) {
		outMu.Lock()
		outcomes = append(outcomes, o)
		outMu.Unlock()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	tenants := []string{"acme", "initech", "hooli", ""}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
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
				body := clusterRouteBody(seed)
				req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
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
					// The router itself must never drop a connection.
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
				record(o)
				time.Sleep(5 * time.Millisecond)
			}
		}(g)
	}

	statsURL := ts.URL + "/v1/stats"
	victim := backends[0]
	waitStats := func(what string, within time.Duration, pred func(Stats) bool) {
		t.Helper()
		deadline := time.Now().Add(within)
		for {
			resp, err := hc.Get(statsURL)
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
				t.Fatalf("timed out waiting for %s; victim stats: %+v", what, st.Backends[victim])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Let the fleet take some healthy load first.
	time.Sleep(400 * time.Millisecond)

	// --- SIGKILL one backend mid-storm. Its breaker must open. ---
	if err := children[0].cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-children[0].done
	children[0] = nil
	waitStats("victim breaker to open", 20*time.Second, func(st Stats) bool {
		return st.Backends[victim].Opens >= 1
	})

	// Keep storming against the two survivors.
	time.Sleep(400 * time.Millisecond)

	// --- Restart the victim at the same address over the same journal: the
	// breaker must pass through half-open and close (Recovers counts only
	// half-open → closed transitions), and the WAL must re-run its jobs. ---
	children[0] = startClusterChild(t, addrs[0], dirs[0])
	waitStats("victim breaker to recover via half-open", 30*time.Second, func(st Stats) bool {
		b := st.Backends[victim]
		return b.Recovers >= 1 && b.State == "closed" && !b.Drained
	})

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	// --- Judge every outcome: correct answers or truthful retryable errors,
	// nothing else. ---
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
	if len(outcomes) == 0 {
		t.Fatal("storm recorded no outcomes")
	}

	// --- Zero lost acknowledged jobs: every acked ID reaches done through
	// the router. While the owner was briefly down a poll may say 503
	// (retryable); it must never say 404 (lost). ---
	if len(acked) == 0 {
		t.Fatal("storm acknowledged no jobs; drill proves nothing")
	}
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
				if st.State == string(service.JobDone) {
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
	t.Logf("all %d acknowledged jobs reached done across the kill/restart", len(acked))
}

// clusterRouteBody builds a small deterministic routing problem.
func clusterRouteBody(seed int64) []byte {
	n := struct {
		Name   string `json:"name"`
		Source struct {
			X int64 `json:"x"`
			Y int64 `json:"y"`
		} `json:"source"`
		Sinks []map[string]any `json:"sinks"`
	}{Name: fmt.Sprintf("chaos-%d", seed)}
	for s := int64(0); s < 3; s++ {
		n.Sinks = append(n.Sinks, map[string]any{
			"pos":  map[string]int64{"x": (seed%97 + 1) * (s + 1) * 40, "y": (seed%89 + 1) * (s + 2) * 30},
			"load": 0.05,
			"req":  1.5,
		})
	}
	body, _ := json.Marshal(map[string]any{"net": n})
	return body
}

// drillChild is one re-exec'd copy of this test binary serving as a backend
// in a subprocess drill. Its stdout, where -test.v and t.Fatal write, and
// its stderr both go to the parent's stderr, so a child that dies says why.
// done is closed once the child has exited; err then holds its exit status.
type drillChild struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

// startDrillChild re-execs this test binary to run the test named run
// alone, with env added to its environment.
func startDrillChild(t *testing.T, run string, env ...string) *drillChild {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+run+"$", "-test.v")
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &drillChild{cmd: cmd, done: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()
	return c
}

// killDrillChildren SIGKILLs and reaps whatever children are still up.
func killDrillChildren(children []*drillChild) {
	for i, c := range children {
		if c != nil {
			_ = c.cmd.Process.Kill()
			<-c.done
			children[i] = nil
		}
	}
}

// waitReady polls the readyz of the backend the child serves at base until
// it serves. It fails at once, with the child's exit status, if the child
// exits first.
func (c *drillChild) waitReady(t *testing.T, base string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		resp, err := http.Get(base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		select {
		case <-c.done:
			t.Fatalf("backend %s exited before it became ready: %v", base, c.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend %s never became ready: %v", base, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startClusterChild re-execs this test binary as one durable merlind
// backend serving at addr over journal dir.
func startClusterChild(t *testing.T, addr, dir string) *drillChild {
	t.Helper()
	return startDrillChild(t, "TestClusterChaosChild",
		"MERLIN_CLUSTER_CHILD=1",
		"MERLIN_CLUSTER_ADDR="+addr,
		"MERLIN_CLUSTER_DIR="+dir,
		// A per-job delay keeps a queue of acknowledged-but-unfinished work
		// behind the worker, so the SIGKILL provably lands on acked jobs.
		"MERLIN_FAULTS=service.worker=delay:50ms",
	)
}

// TestClusterChaosChild is the re-exec'd backend: a durable merlind server
// at a fixed address. A no-op unless MERLIN_CLUSTER_CHILD gates it in.
func TestClusterChaosChild(t *testing.T) {
	if os.Getenv("MERLIN_CLUSTER_CHILD") == "" {
		t.Skip("cluster-chaos child; only runs re-exec'd")
	}
	s, err := service.NewDurable(service.Config{
		Workers:    2,
		JournalDir: os.Getenv("MERLIN_CLUSTER_DIR"),
	})
	if err != nil {
		t.Fatalf("child boot: %v", err)
	}
	ln, err := stdnet.Listen("tcp", os.Getenv("MERLIN_CLUSTER_ADDR"))
	if err != nil {
		t.Fatalf("child bind: %v", err)
	}
	// Serve until SIGKILL; no graceful path out.
	_ = http.Serve(ln, s.Handler())
}
