package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	stdnet "net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"merlin/internal/router"
	"merlin/internal/service"
)

// proc is one served process the benchmark started. The benchmark owns its
// lifetime: stop signals it, waits for it to exit and reports its peak RSS.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	log     *os.File
}

func startProc(name, bin string, args, env []string, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), env...)
	// A benchmark that dies must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	return &proc{name: name, cmd: cmd, logPath: logPath, log: logf}, nil
}

// stop asks the process to drain (SIGTERM), kills it if it has not exited
// after 10 s, waits for it, and returns its peak resident set in MB.
func (p *proc) stop() float64 {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine: Wait reports it
	kill := time.AfterFunc(10*time.Second, func() { _ = p.cmd.Process.Kill() })
	_ = p.cmd.Wait() // a nonzero exit after SIGTERM or a kill is still a stopped process
	kill.Stop()
	p.log.Close()
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// logTail is the end of the process's log, for boot errors.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.logPath) // best effort: only decorates an error
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// fleet is README's cluster example at two backends: merlinrouter in front
// of two durable, gossiping, replicating merlind backends with one worker
// each.
type fleet struct {
	dir      string
	backends []*proc
	urls     []string
	router   *proc
	base     string
}

// fleetPorts picks the fleet's three loopback ports, backends first: fixed
// ones, so that the hash ring — and with it every net's home backend — is
// the same on every run, or free ones when those are taken. Each process is
// told its own URL up front, because gossip and replication need it before
// the process could report what it bound.
func fleetPorts() ([]int, error) {
	if ports, err := listenPorts([]int{41730, 41731, 41732}); err == nil {
		return ports, nil
	}
	return listenPorts([]int{0, 0, 0})
}

// listenPorts binds and releases each port (0 = any free one).
func listenPorts(want []int) ([]int, error) {
	var ports []int
	for _, p := range want {
		ln, err := stdnet.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports = append(ports, ln.Addr().(*stdnet.TCPAddr).Port)
	}
	return ports, nil
}

func portURL(p int) string { return fmt.Sprintf("http://127.0.0.1:%d", p) }

// bootFleet starts the fleet on ports (two backends, then the router) and
// waits until every process is ready.
// traced turns on the backends' trace rings (keep-all sampling, large
// enough to hold a whole run) and their GC trace; untraced fleets run with
// tracing off.
func bootFleet(cfg config, dir string, traced bool, ports []int) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	for _, p := range ports[:2] {
		f.urls = append(f.urls, portURL(p))
	}
	peers := strings.Join(f.urls, ",")
	traceArgs := []string{"-trace-ring", "-1"}
	var env []string
	if traced {
		traceArgs = []string{"-trace-ring", "16384", "-trace-sample", "1"}
		env = []string{"GODEBUG=gctrace=1"}
	}
	for i, u := range f.urls {
		args := append([]string{
			"-addr", strings.TrimPrefix(u, "http://"),
			"-workers", "1",
			"-journal-dir", filepath.Join(dir, fmt.Sprintf("journal%d", i)),
			"-gossip", u, "-gossip-peers", peers,
			"-peers", peers, "-replicas", "2",
		}, traceArgs...)
		p, err := startProc(fmt.Sprintf("merlind%d", i), filepath.Join(cfg.binDir, "merlind"), args, env,
			filepath.Join(dir, fmt.Sprintf("merlind%d.log", i)))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, p)
	}
	f.base = portURL(ports[2])
	routerTrace := "-1"
	if traced {
		routerTrace = "0" // the router's default ring
	}
	rp, err := startProc("merlinrouter", filepath.Join(cfg.binDir, "merlinrouter"), []string{
		"-addr", strings.TrimPrefix(f.base, "http://"),
		"-backends", peers,
		"-gossip", f.base, "-gossip-peers", peers, "-fleet-brownout",
		"-qos-tenants", benchTenant + "=gold", "-hedge", "30ms",
		// QoS rates sit far above the offered load: two closed-loop clients
		// reach at most a few thousand cache hits per second, and the gold
		// class gets 4× this rate and 2× this concurrency.
		"-qos-rate", "20000", "-qos-concurrency", "64",
		"-trace-ring", routerTrace,
	}, nil, filepath.Join(dir, "merlinrouter.log"))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = rp
	for i, u := range append(append([]string(nil), f.urls...), f.base) {
		if err := waitReady(u); err != nil {
			f.stop()
			all := append(append([]*proc(nil), f.backends...), f.router)
			return nil, fmt.Errorf("%s not ready: %w\n%s", all[i].name, err, all[i].logTail())
		}
	}
	return f, nil
}

// benchTenant is the tenant both clients send as; the router classes it gold.
const benchTenant = "bench"

func waitReady(base string) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("readyz status %d", resp.StatusCode)
			}
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop stops the router, then the backends, removes the journals, and
// returns the backends' summed peak RSS in MB.
func (f *fleet) stop() float64 {
	if f.router != nil {
		f.router.stop()
	}
	var rss float64
	for _, b := range f.backends {
		rss += b.stop()
	}
	for i := range f.backends {
		_ = os.RemoveAll(filepath.Join(f.dir, fmt.Sprintf("journal%d", i))) // scratch state; logs stay
	}
	return rss
}

// getJSON decodes base+path into out.
func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// fleetCounters is the slice of /v1/stats the per-layer metrics read,
// summed over the backends, plus the router's counters.
type fleetCounters struct {
	backend      map[string]uint64
	pushFailures uint64
	router       map[string]uint64
}

func (f *fleet) counters() (fleetCounters, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	fc := fleetCounters{backend: map[string]uint64{}}
	for _, u := range f.urls {
		var st service.Stats
		if err := getJSON(hc, u+"/v1/stats", &st); err != nil {
			return fc, err
		}
		for k, v := range st.Counters {
			fc.backend[k] += v
		}
		if st.Durability != nil && st.Durability.Replication != nil {
			fc.pushFailures += st.Durability.Replication.PushFailures
		}
	}
	var rs struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := getJSON(hc, f.base+"/v1/stats", &rs); err != nil {
		return fc, err
	}
	fc.router = rs.Counters
	return fc, nil
}

// gcSince reads the GC trace a traced backend wrote to its log after byte
// offset from: the number of collections and their summed stop-the-world
// pauses (the sweep-termination and mark-termination clock phases).
func gcSince(logPath string, from int64) (cycles int, pauseMS float64, err error) {
	b, err := os.ReadFile(logPath)
	if err != nil {
		return 0, 0, err
	}
	if from > int64(len(b)) {
		from = int64(len(b))
	}
	for _, m := range gcLine.FindAllSubmatch(b[from:], -1) {
		stw1, err1 := strconv.ParseFloat(string(m[1]), 64)
		stw2, err2 := strconv.ParseFloat(string(m[2]), 64)
		if err := errors.Join(err1, err2); err != nil {
			return 0, 0, err
		}
		cycles++
		pauseMS += stw1 + stw2
	}
	return cycles, pauseMS, nil
}

var gcLine = regexp.MustCompile(`(?m)^gc \d+ @[0-9.]+s \d+%: ([0-9.]+)\+[0-9.]+\+([0-9.]+) ms clock`)

// logSizes is the current size of each backend log, the offset gcSince
// starts from.
func (f *fleet) logSizes() []int64 {
	out := make([]int64, len(f.backends))
	for i, b := range f.backends {
		if fi, err := os.Stat(b.logPath); err == nil {
			out[i] = fi.Size()
		}
	}
	return out
}

// post sends body to url and returns the status, response body, serving
// backend and client-timed latency.
func post(hc *http.Client, url string, body []byte) (int, []byte, string, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.TenantHeader, benchTenant)
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, "", time.Since(start), err
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, buf.Bytes(), resp.Header.Get(router.BackendHeader), time.Since(start), err
}
