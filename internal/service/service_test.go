package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"merlin/internal/flows"
	"merlin/internal/net"
)

func testNet(t testing.TB, sinks int, seed int64) *net.Net {
	t.Helper()
	prof := flows.ProfileFor(sinks)
	return net.Generate(net.DefaultGenSpec(sinks, seed), prof.Tech, prof.Lib.Driver)
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRouteEndToEnd is the tentpole acceptance test: POST a generated net,
// check the answer against a direct flows run of the same net, then repeat
// the identical request and require a cache hit visible on /v1/stats.
func TestRouteEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	nt := testNet(t, 8, 42)
	direct, err := flows.Run(flows.FlowIII, nt, flows.ProfileFor(nt.N()))
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/v1/route", &RouteRequest{Net: nt})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decode[RouteResponse](t, resp)
	if math.Abs(got.ReqAtDriverInputNS-direct.Eval.ReqAtDriverInput) > 1e-9 {
		t.Errorf("req@driver: service %.9f, direct %.9f", got.ReqAtDriverInputNS, direct.Eval.ReqAtDriverInput)
	}
	if math.Abs(got.DelayNS-direct.Eval.Delay) > 1e-9 {
		t.Errorf("delay: service %.9f, direct %.9f", got.DelayNS, direct.Eval.Delay)
	}
	if got.Wirelength != direct.Eval.Wirelength {
		t.Errorf("wirelength: service %d, direct %d", got.Wirelength, direct.Eval.Wirelength)
	}
	if got.Tree == nil || got.Tree.Kind != "source" {
		t.Fatalf("response tree missing or not rooted at source: %+v", got.Tree)
	}
	if got.Loops < 1 {
		t.Errorf("loops = %d, want >= 1", got.Loops)
	}
	if len(got.Frontier) == 0 {
		t.Error("response carries no frontier")
	}
	if got.Cached {
		t.Error("first request reported cached")
	}

	// Identical request again: served from the result cache.
	resp = postJSON(t, ts.URL+"/v1/route", &RouteRequest{Net: nt})
	got2 := decode[RouteResponse](t, resp)
	if !got2.Cached {
		t.Error("second identical request not served from cache")
	}
	if got2.ReqAtDriverInputNS != got.ReqAtDriverInputNS {
		t.Errorf("cached answer differs: %.9f vs %.9f", got2.ReqAtDriverInputNS, got.ReqAtDriverInputNS)
	}
	stats := decode[Stats](t, mustGet(t, ts.URL+"/v1/stats"))
	if stats.Cache.Hits < 1 {
		t.Errorf("stats cache hits = %d, want >= 1", stats.Cache.Hits)
	}
	if stats.Counters["jobs.completed"] < 1 {
		t.Errorf("jobs.completed = %d, want >= 1", stats.Counters["jobs.completed"])
	}
	if stats.Cache.HitRate <= 0 {
		t.Errorf("hit rate = %v, want > 0", stats.Cache.HitRate)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRouteGoalVariants exercises engine reuse across extraction goals: the
// same net routed plain, then under a required-time floor, through one
// worker. The second answer must match a fresh direct run with the same
// floor — this is what pins the memo-reuse-across-goals contract of
// flows.RunFlowIIIOn.
func TestRouteGoalVariants(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	nt := testNet(t, 7, 7)
	ctx := context.Background()

	first, err := s.Route(ctx, &RouteRequest{Net: nt, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	floor := first.ReqAtDriverInputNS - 0.05
	if floor <= 0 {
		t.Skipf("net too tight for a positive floor (req %.4f)", first.ReqAtDriverInputNS)
	}

	prof := flows.ProfileFor(nt.N())
	prof.Core.Goal.Mode = 1 // core.GoalMinArea
	prof.Core.Goal.ReqFloor = floor
	direct, err := flows.Run(flows.FlowIII, nt, prof)
	if err != nil {
		t.Fatal(err)
	}

	second, err := s.Route(ctx, &RouteRequest{Net: nt, ReqFloor: floor, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(second.ReqAtDriverInputNS-direct.Eval.ReqAtDriverInput) > 1e-9 {
		t.Errorf("min-area req@driver: service %.9f, direct %.9f", second.ReqAtDriverInputNS, direct.Eval.ReqAtDriverInput)
	}
	if math.Abs(second.BufferArea-direct.Eval.BufferArea) > 1e-9 {
		t.Errorf("min-area buffer area: service %.2f, direct %.2f", second.BufferArea, direct.Eval.BufferArea)
	}
	if hits := s.met.get("engine_cache.hits"); hits < 1 {
		t.Errorf("engine cache hits = %d, want >= 1 (same net, same worker)", hits)
	}
}

// TestConcurrentRoutes issues 32 concurrent requests through the pool and
// checks every answer against a direct run of its net; run under -race this
// is the acceptance check that the queue, workers, cache and metrics are
// data-race free.
func TestConcurrentRoutes(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 8 distinct nets ×4: exercises both compute and cache-hit paths
	// concurrently.
	const distinct = 8
	nets := make([]*net.Net, distinct)
	want := make([]float64, distinct)
	for i := range nets {
		nets[i] = testNet(t, 5, int64(i))
		direct, err := flows.Run(flows.FlowIII, nets[i], flows.ProfileFor(nets[i].N()))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = direct.Eval.ReqAtDriverInput
	}

	const n = 32
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, _ := json.Marshal(&RouteRequest{Net: nets[i%distinct]})
			resp, err := http.Post(ts.URL+"/v1/route", "application/json", bytes.NewReader(buf))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			var rr RouteResponse
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				errs <- err
				return
			}
			if rr.Tree == nil {
				errs <- fmt.Errorf("request %d: no tree", i)
			}
			if w := want[i%distinct]; math.Abs(rr.ReqAtDriverInputNS-w) > 1e-9 {
				errs <- fmt.Errorf("request %d (net %d): service %.9f, direct %.9f", i, i%distinct, rr.ReqAtDriverInputNS, w)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	stats := s.Stats()
	if done := stats.Counters["jobs.completed"]; done < 8 {
		t.Errorf("jobs.completed = %d, want >= 8", done)
	}
}

// TestGracefulShutdown pins a job in flight (via the test hook), starts the
// drain, and requires that the in-flight request completes successfully
// while new submissions are refused.
func TestGracefulShutdown(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	s := New(Config{Workers: 1, onJobStart: func() {
		once.Do(func() { close(started) })
	}})

	type routeOut struct {
		resp *RouteResponse
		err  error
	}
	out := make(chan routeOut, 1)
	go func() {
		resp, err := s.Route(context.Background(), &RouteRequest{Net: testNet(t, 8, 99)})
		out <- routeOut{resp, err}
	}()
	<-started // the job is provably on a worker now

	shutErr := make(chan error, 1)
	go func() { shutErr <- s.Shutdown(context.Background()) }()

	r := <-out
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.resp.Tree == nil {
		t.Fatal("in-flight request returned no tree")
	}
	if err := <-shutErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := s.Route(context.Background(), &RouteRequest{Net: testNet(t, 5, 1)}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown route error = %v, want ErrShuttingDown", err)
	}
	if !s.Draining() {
		t.Error("Draining() false after shutdown")
	}
}

// TestQueueFull blocks the single worker, fills the depth-1 queue, and
// requires the next submission to be rejected with ErrQueueFull.
func TestQueueFull(t *testing.T) {
	block := make(chan struct{})
	var started atomic.Int32
	s := New(Config{Workers: 1, QueueDepth: 1, onJobStart: func() {
		started.Add(1)
		<-block
	}})
	defer func() {
		close(block)
		s.Shutdown(context.Background())
	}()
	ctx := context.Background()

	go s.Route(ctx, &RouteRequest{Net: testNet(t, 5, 11), NoCache: true}) // occupies the worker
	waitFor(t, func() bool { return started.Load() == 1 })
	go s.Route(ctx, &RouteRequest{Net: testNet(t, 5, 12), NoCache: true}) // sits in the queue
	waitFor(t, func() bool { return len(s.jobs) == 1 })

	_, err := s.Route(ctx, &RouteRequest{Net: testNet(t, 5, 13), NoCache: true})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("error = %v, want ErrQueueFull", err)
	}
	if s.met.get("jobs.rejected") != 1 {
		t.Errorf("jobs.rejected = %d, want 1", s.met.get("jobs.rejected"))
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadline routes a net too large to finish in a millisecond and
// requires a deadline error — the context plumbed through the DP's outer
// loops is what makes this abort promptly.
func TestDeadline(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	nt := testNet(t, 24, 5)
	_, err := s.Route(context.Background(), &RouteRequest{Net: nt, TimeoutMS: 1, NoCache: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want DeadlineExceeded", err)
	}
}

// TestValidation exercises the 400 paths.
func TestValidation(t *testing.T) {
	s := New(Config{Workers: 1, MaxSinks: 10})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  RouteRequest
	}{
		{"missing net", RouteRequest{}},
		{"unknown flow", RouteRequest{Net: testNet(t, 5, 1), Flow: "IV"}},
		{"too many sinks", RouteRequest{Net: testNet(t, 12, 1)}},
		{"conflicting goals", RouteRequest{Net: testNet(t, 5, 1), AreaBudget: 100, ReqFloor: 1}},
		{"negative alpha", RouteRequest{Net: testNet(t, 5, 1), Alpha: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/route", &tc.req)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestHealthz: healthz is pure liveness (200 even after Shutdown — "restart
// me" and "stop routing to me" are different questions), while readyz flips
// to 503 the moment the server drains.
func TestHealthz(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/v1/healthz", "/v1/readyz"} {
		resp := mustGet(t, ts.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s before drain: status %d, want 200", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := mustGet(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: status %d, want 200 (liveness must not flip on drain)", resp.StatusCode)
	}
	resp.Body.Close()
	resp = mustGet(t, ts.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestCacheKeyDistinguishesKnobs: same net, different goal knobs must not
// share a cache entry.
func TestCacheKeyDistinguishesKnobs(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	nt := testNet(t, 5, 3)
	base := &RouteRequest{Net: nt}
	prof, fl, err := s.prepare(base)
	if err != nil {
		t.Fatal(err)
	}
	k1, e1 := cacheKeys(base, fl, prof)

	withFloor := &RouteRequest{Net: nt, ReqFloor: 1.0}
	prof2, fl2, err := s.prepare(withFloor)
	if err != nil {
		t.Fatal(err)
	}
	k2, e2 := cacheKeys(withFloor, fl2, prof2)
	if k1 == k2 {
		t.Error("result keys collide across goal variants")
	}
	if e1 != e2 {
		t.Error("engine keys differ across goal variants; engine reuse is lost")
	}

	renamed := *nt
	renamed.Name = "other-name"
	k3, _ := cacheKeys(&RouteRequest{Net: &renamed}, fl, prof)
	if k1 != k3 {
		t.Error("renaming a net changed its cache key; names must not affect identity")
	}
}
