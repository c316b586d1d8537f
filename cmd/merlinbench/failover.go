// The failover benchmarks: how long orphan takeover takes end to end, and
// what a checkpoint buys a crash-recovered job over recomputing from the top
// of the degradation ladder.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	stdnet "net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"merlin/internal/journal"
	"merlin/internal/router"
	"merlin/internal/service"
)

// takeoverBenchResult times fleet-wide job failover as an operator would see
// it: a two-backend fleet (gossip + manifest replication + takeover sweeps),
// one backend SIGKILLed while holding acknowledged jobs, and the clock runs
// from the kill to the survivor serving each orphan's terminal result —
// death detection, the journaled claim, and the recompute included.
type takeoverBenchResult struct {
	Jobs             int     `json:"jobs"`
	Orphans          int     `json:"orphans"`
	GossipIntervalMS int64   `json:"gossip_interval_ms"`
	SweepIntervalMS  int64   `json:"takeover_sweep_ms"`
	FirstRecoverMS   float64 `json:"first_recover_ms"`
	AllRecoverMS     float64 `json:"all_recover_ms"`
	Takeovers        uint64  `json:"takeovers"`
}

// ckptResumeResult prices checkpointed progress: the same acknowledged job
// recovered from a WAL holding only its accept record (recompute from the
// full tier) vs one that also holds a checkpoint at a cheaper rung (resume
// where the dead owner left off). Both clocks run from server boot to the
// job's terminal state.
type ckptResumeResult struct {
	Samples        int     `json:"samples"`
	Sinks          int     `json:"sinks"`
	ResumeRung     string  `json:"resume_rung"`
	RecomputeP50MS float64 `json:"recompute_p50_ms"`
	ResumeP50MS    float64 `json:"resume_p50_ms"`
}

// runChildBackend is the re-exec'd half of the takeover benchmark: one
// gossiping, replicating, takeover-enabled durable backend, served until the
// parent SIGKILLs it. Mirrors cmd/merlind wiring, parameterized by env.
func runChildBackend() {
	self := "http://" + os.Getenv("MERLINBENCH_ADDR")
	rg, err := router.NewRing(strings.Split(os.Getenv("MERLINBENCH_RING"), ","), 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlinbench child:", err)
		os.Exit(1)
	}
	s, err := service.NewDurable(service.Config{
		Workers:          2,
		JournalDir:       os.Getenv("MERLINBENCH_DIR"),
		GossipSelf:       self,
		GossipPeers:      strings.Split(os.Getenv("MERLINBENCH_PEERS"), ","),
		GossipInterval:   50 * time.Millisecond,
		ReplicaRing:      rg.PickString,
		ReplicaSelf:      self,
		ReplicaCount:     1,
		TakeoverInterval: 100 * time.Millisecond,
		LeaseTTL:         time.Second,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlinbench child:", err)
		os.Exit(1)
	}
	ln, err := stdnet.Listen("tcp", os.Getenv("MERLINBENCH_ADDR"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlinbench child:", err)
		os.Exit(1)
	}
	// No graceful path out: the parent kills this process to orphan its jobs.
	_ = http.Serve(ln, s.Handler())
}

// runTakeoverLatency boots the two-backend fleet, loads the victim with
// acknowledged slow jobs (a worker delay fault keeps them in flight), lets
// the manifests replicate, SIGKILLs the victim and times the survivor
// claiming and finishing every orphan.
func runTakeoverLatency() (takeoverBenchResult, error) {
	const jobs = 6
	var addrs, urls, dirs []string
	for i := 0; i < 2; i++ {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return takeoverBenchResult{}, err
		}
		addrs = append(addrs, ln.Addr().String())
		ln.Close()
		urls = append(urls, "http://"+addrs[i])
		dir, err := os.MkdirTemp("", "merlinbench-takeover")
		if err != nil {
			return takeoverBenchResult{}, err
		}
		defer os.RemoveAll(dir)
		dirs = append(dirs, dir)
	}
	ringCSV := strings.Join(urls, ",")
	children := make([]*exec.Cmd, 2)
	defer func() {
		for _, c := range children {
			if c != nil && c.Process != nil {
				_ = c.Process.Kill()
				_ = c.Wait()
			}
		}
	}()
	for i := 0; i < 2; i++ {
		faults := ""
		if i == 0 {
			// The victim's workers sleep per job so the kill provably lands on
			// acknowledged-but-unfinished work; the survivor recomputes at
			// full speed, keeping the takeover clock honest.
			faults = "service.worker=delay:750ms"
		}
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"MERLINBENCH_CHILD=backend",
			"MERLINBENCH_ADDR="+addrs[i],
			"MERLINBENCH_DIR="+dirs[i],
			"MERLINBENCH_PEERS="+urls[1-i],
			"MERLINBENCH_RING="+ringCSV,
			"MERLIN_FAULTS="+faults,
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return takeoverBenchResult{}, err
		}
		children[i] = cmd
	}
	victim, survivor := urls[0], urls[1]
	hc := &http.Client{Timeout: 5 * time.Second}
	wait := func(what string, within time.Duration, pred func() bool) error {
		deadline := time.Now().Add(within)
		for !pred() {
			if time.Now().After(deadline) {
				return fmt.Errorf("takeover bench: %s never happened", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
		return nil
	}
	getJSON := func(url string, v any) bool {
		resp, err := hc.Get(url)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return false
		}
		return json.NewDecoder(resp.Body).Decode(v) == nil
	}
	for _, u := range urls {
		u := u
		if err := wait("backend "+u+" ready", 30*time.Second, func() bool {
			resp, err := hc.Get(u + "/v1/readyz")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		}); err != nil {
			return takeoverBenchResult{}, err
		}
	}
	// Mutual life evidence before the kill: a node never learned alive can
	// never be declared dead.
	if err := wait("gossip convergence", 15*time.Second, func() bool {
		for i, u := range urls {
			var st service.Stats
			if !getJSON(u+"/v1/stats", &st) || st.Gossip == nil {
				return false
			}
			seen := false
			for _, m := range st.Gossip.Members {
				if m.Node == urls[1-i] && m.State == "alive" {
					seen = true
				}
			}
			if !seen {
				return false
			}
		}
		return true
	}); err != nil {
		return takeoverBenchResult{}, err
	}

	var ids []string
	for i := 0; i < jobs; i++ {
		body, err := json.Marshal(&service.RouteRequest{Net: benchNet(6, int64(7000+i)), MaxLoops: 1})
		if err != nil {
			return takeoverBenchResult{}, err
		}
		resp, err := hc.Post(victim+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return takeoverBenchResult{}, err
		}
		var st service.JobStatus
		derr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if derr != nil || st.ID == "" {
			return takeoverBenchResult{}, fmt.Errorf("takeover bench: job submit status %d", resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	// Manifest push is async; the benchmark measures takeover, not manifest
	// loss, so the victim's replication queue must drain before the kill.
	if err := wait("victim replication drained", 20*time.Second, func() bool {
		var st service.Stats
		return getJSON(victim+"/v1/stats", &st) &&
			st.Durability != nil && st.Durability.Replication != nil &&
			st.Durability.Replication.Pending == 0
	}); err != nil {
		return takeoverBenchResult{}, err
	}
	// The orphan set: everything the victim acknowledged but had not finished
	// at the moment of death. Jobs it did finish were already replicated and
	// cost the survivor nothing.
	var orphans []string
	for _, id := range ids {
		var st service.JobStatus
		if getJSON(victim+"/v1/jobs/"+id, &st) && !service.JobState(st.State).Terminal() {
			orphans = append(orphans, id)
		}
	}
	if len(orphans) == 0 {
		return takeoverBenchResult{}, fmt.Errorf("takeover bench: victim finished all %d jobs before the kill", jobs)
	}

	t0 := time.Now()
	if err := children[0].Process.Signal(syscall.SIGKILL); err != nil {
		return takeoverBenchResult{}, err
	}
	_ = children[0].Wait()
	children[0] = nil

	recovered := map[string]float64{}
	if err := wait("orphans recovered", 60*time.Second, func() bool {
		for _, id := range orphans {
			if _, ok := recovered[id]; ok {
				continue
			}
			var st service.JobStatus
			if !getJSON(survivor+"/v1/jobs/"+id, &st) {
				continue
			}
			if service.JobState(st.State).Terminal() {
				recovered[id] = float64(time.Since(t0).Microseconds()) / 1000
			}
		}
		return len(recovered) == len(orphans)
	}); err != nil {
		return takeoverBenchResult{}, err
	}
	res := takeoverBenchResult{
		Jobs: jobs, Orphans: len(orphans),
		GossipIntervalMS: 50, SweepIntervalMS: 100,
	}
	for _, ms := range recovered {
		if res.FirstRecoverMS == 0 || ms < res.FirstRecoverMS {
			res.FirstRecoverMS = ms
		}
		if ms > res.AllRecoverMS {
			res.AllRecoverMS = ms
		}
	}
	var st service.Stats
	if getJSON(survivor+"/v1/stats", &st) && st.Durability != nil && st.Durability.Leases != nil {
		res.Takeovers = st.Durability.Leases.Takeovers
	}
	return res, nil
}

// runCheckpointResume crafts two WALs for the same acknowledged job — one
// with only the accept record, one that also checkpointed at the "lttree"
// rung — and times crash recovery (NewDurable boot to terminal state) over
// each. The gap is what one checkpoint record saves a successor: the full
// and nobubble DP tiers it does not have to re-burn.
func runCheckpointResume() (ckptResumeResult, error) {
	const (
		samples = 3
		sinks   = 6
	)
	bootToTerminal := func(i int, withCkpt bool) (float64, error) {
		req := &service.RouteRequest{Net: benchNet(sinks, int64(6000+i)), MaxLoops: 1, AllowDegraded: true}
		reqJSON, err := json.Marshal(req)
		if err != nil {
			return 0, err
		}
		dir, err := os.MkdirTemp("", "merlinbench-ckpt")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		id := fmt.Sprintf("bench-ckpt-%d-%t", i, withCkpt)
		j, err := journal.Open(filepath.Join(dir, "wal"), journal.Options{})
		if err != nil {
			return 0, err
		}
		if _, err := j.Replay(func(journal.Record) error { return nil }); err != nil {
			return 0, err
		}
		// The same wire records SubmitJob and checkpointJob would have
		// journaled before the crash (internal/service walRecord).
		if err := j.Append([]byte(fmt.Sprintf(`{"t":"accept","id":%q,"req":%s}`, id, reqJSON))); err != nil {
			return 0, err
		}
		if withCkpt {
			if err := j.Append([]byte(fmt.Sprintf(`{"t":"ckpt","id":%q,"rung":"lttree","attempt":1}`, id))); err != nil {
				return 0, err
			}
		}
		if err := j.Close(); err != nil {
			return 0, err
		}

		t0 := time.Now()
		s, err := service.NewDurable(service.Config{Workers: 1, JournalDir: dir})
		if err != nil {
			return 0, err
		}
		defer s.Shutdown(context.Background())
		deadline := time.Now().Add(2 * time.Minute)
		for {
			st, err := s.JobStatus(context.Background(), id)
			if err != nil {
				return 0, err
			}
			if service.JobState(st.State).Terminal() {
				if st.State == string(service.JobFailed) {
					return 0, fmt.Errorf("ckpt bench: recovered job failed: %s", st.Error)
				}
				return float64(time.Since(t0).Microseconds()) / 1000, nil
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("ckpt bench: recovered job never finished")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	recomp := make([]float64, samples)
	resume := make([]float64, samples)
	for i := 0; i < samples; i++ {
		var err error
		if recomp[i], err = bootToTerminal(i, false); err != nil {
			return ckptResumeResult{}, err
		}
		if resume[i], err = bootToTerminal(i, true); err != nil {
			return ckptResumeResult{}, err
		}
	}
	sort.Float64s(recomp)
	sort.Float64s(resume)
	return ckptResumeResult{
		Samples:        samples,
		Sinks:          sinks,
		ResumeRung:     "lttree",
		RecomputeP50MS: recomp[len(recomp)/2],
		ResumeP50MS:    resume[len(resume)/2],
	}, nil
}
