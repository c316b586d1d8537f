package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	stdnet "net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"merlin/internal/flows"
	"merlin/internal/gossip"
	"merlin/internal/net"
	"merlin/internal/service"
)

// TestSIGTERMDrainsInFlight is the daemon-level graceful-shutdown check: it
// builds and starts merlind, puts a request in flight, sends SIGTERM, and
// requires that the request still completes and the process exits cleanly.
func TestSIGTERMDrainsInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "merlind")
	if out, err := exec.Command("go", "build", "-o", bin, "merlin/cmd/merlind").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first log line reports the bound address.
	sc := bufio.NewScanner(stderr)
	addrRe := regexp.MustCompile(`listening on (\S+)`)
	var base string
	for sc.Scan() {
		if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
			base = "http://" + m[1]
			break
		}
	}
	if base == "" {
		t.Fatalf("never saw the listening line (scan err: %v)", sc.Err())
	}
	go func() { // keep draining stderr so the child never blocks on a full pipe
		for sc.Scan() {
		}
	}()

	// A net big enough that the request is still running when the signal
	// lands a moment later.
	prof := flows.ProfileFor(14)
	nt := net.Generate(net.DefaultGenSpec(14, 3), prof.Tech, prof.Lib.Driver)
	body, _ := json.Marshal(&service.RouteRequest{Net: nt})
	type result struct {
		resp *http.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/route", "application/json", bytes.NewReader(body))
		done <- result{resp, err}
	}()

	time.Sleep(150 * time.Millisecond) // let the POST reach a worker
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed across SIGTERM: %v", r.err)
	}
	defer r.resp.Body.Close()
	if r.resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request: status %d", r.resp.StatusCode)
	}
	var rr service.RouteResponse
	if err := json.NewDecoder(r.resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Tree == nil {
		t.Fatal("drained response carries no tree")
	}

	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("merlind exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("merlind did not exit within 30s of SIGTERM")
	}
	if err := verifyDown(base); err == nil {
		t.Fatal("server still answering after exit")
	}
}

// TestSIGTERMAnnouncesDrainFirst: a gossiping merlind that gets SIGTERM with
// a request in flight tells its gossip peers it is draining before that
// request's answer arrives, so routers stop sending it work while its
// listener still accepts, rather than after it closes.
func TestSIGTERMAnnouncesDrainFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "merlind")
	if out, err := exec.Command("go", "build", "-o", bin, "merlin/cmd/merlind").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// The peer is a loopless gossip node: it only merges what merlind pushes.
	ps := httptest.NewUnstartedServer(nil)
	peer, err := gossip.New(gossip.Config{Self: "http://" + ps.Listener.Addr().String(), Interval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ps.Config.Handler = gossip.Handler(peer)
	ps.Start()
	defer ps.Close()

	// merlind gossips under its own URL, so it needs its port up front.
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	self := "http://" + addr

	cmd := exec.Command(bin, "-addr", addr, "-workers", "1", "-gossip", self, "-gossip-peers", ps.URL)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	sc := bufio.NewScanner(stderr)
	for sc.Scan() && !strings.Contains(sc.Text(), "listening on ") {
	}
	go func() { // keep draining stderr so the child never blocks on a full pipe
		for sc.Scan() {
		}
	}()

	// The peer must have heard merlind ready first, so that a not-ready
	// digest later can only be the drain.
	heard := func() (ready, ok bool) {
		m, ok := peer.Evidence(self)
		return m.Digest.Ready, ok
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ready, ok := heard(); ok && ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the peer never heard merlind ready")
		}
		time.Sleep(10 * time.Millisecond)
	}

	prof := flows.ProfileFor(14)
	nt := net.Generate(net.DefaultGenSpec(14, 3), prof.Tech, prof.Lib.Driver)
	body, _ := json.Marshal(&service.RouteRequest{Net: nt})
	type result struct {
		resp *http.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(self+"/v1/route", "application/json", bytes.NewReader(body))
		done <- result{resp, err}
	}()
	time.Sleep(150 * time.Millisecond) // let the POST reach a worker
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	deadline = time.Now().Add(30 * time.Second)
	for {
		if ready, ok := heard(); ok && !ready {
			break
		}
		select {
		case r := <-done:
			if r.err == nil {
				r.resp.Body.Close()
			}
			t.Fatal("the in-flight route was answered before the peer heard the drain")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the peer never heard the drain")
		}
		time.Sleep(2 * time.Millisecond)
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed across SIGTERM: %v", r.err)
	}
	r.resp.Body.Close()
	if r.resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request: status %d", r.resp.StatusCode)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("merlind exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("merlind did not exit within 30s of SIGTERM")
	}
}

// TestSmokeMode runs the -smoke path (in-process server variant) directly:
// it must complete every probe and return nil.
func TestSmokeMode(t *testing.T) {
	if err := runSmoke("", 2*time.Minute); err != nil {
		t.Fatalf("smoke mode failed: %v", err)
	}
}

func verifyDown(base string) error {
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	return fmt.Errorf("got status %d", resp.StatusCode)
}
