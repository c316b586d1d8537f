package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	gonet "net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"merlin/internal/gossip"
	"merlin/internal/net"
	"merlin/internal/qos"
	"merlin/internal/service"
	"merlin/internal/trace"
)

// stubBackend is a scriptable merlind stand-in: the router only needs HTTP
// semantics, not real routing.
type stubBackend struct {
	*httptest.Server
	routeStatus atomic.Int32 // status for POST /v1/route (0 = 200)
	routeDelay  atomic.Int64 // nanoseconds to sleep before answering /v1/route
	hits        atomic.Int64 // /v1/route requests served
	lastBody    atomic.Value // []byte, last /v1/route body
}

func newStubBackend(t *testing.T) *stubBackend {
	t.Helper()
	sb := &stubBackend{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/route", func(w http.ResponseWriter, r *http.Request) {
		sb.hits.Add(1)
		body := make([]byte, 0)
		buf := bytes.Buffer{}
		_, _ = buf.ReadFrom(r.Body)
		body = buf.Bytes()
		sb.lastBody.Store(body)
		if d := sb.routeDelay.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return
			}
		}
		st := int(sb.routeStatus.Load())
		if st == 0 {
			st = http.StatusOK
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(st)
		fmt.Fprintf(w, `{"net":"stub","status":%d}`, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no such job","code":"not_found"}`, http.StatusNotFound)
	})
	sb.Server = httptest.NewServer(mux)
	t.Cleanup(sb.Close)
	return sb
}

// deadURL reserves a port, closes it, and returns its URL: connections are
// refused immediately.
func deadURL(t *testing.T) string {
	t.Helper()
	l, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return "http://" + addr
}

// newTestRouter builds a router with QoS disabled unless the config says
// otherwise.
func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.QoS.Rate == 0 && cfg.QoS.MaxConcurrent == 0 {
		cfg.QoS = qos.Config{Rate: -1, MaxConcurrent: -1}
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// routeBody marshals a RouteRequest for the named synthetic net.
func routeBody(t *testing.T, seed int64, flow string) []byte {
	t.Helper()
	n := &net.Net{Name: fmt.Sprintf("t%d", seed)}
	n.Sinks = []net.Sink{{Load: 0.05, Req: 1.0}}
	n.Sinks[0].Pos.X = seed * 100
	n.Sinks[0].Pos.Y = seed * 70
	body, err := json.Marshal(service.RouteRequest{Net: n, Flow: flow})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// bodyHomedAt searches seeds until the request's ring home is the wanted
// backend — tests that need "the home replica is the broken one" use this.
func bodyHomedAt(t *testing.T, rt *Router, home string, flow string) []byte {
	t.Helper()
	for seed := int64(1); seed < 10000; seed++ {
		body := routeBody(t, seed, flow)
		key, _ := shardKey(body, parseRoute(body))
		if rt.ring.pick(key)[0] == home {
			return body
		}
	}
	t.Fatal("no seed homes at the wanted backend")
	return nil
}

func postRoute(t *testing.T, h http.Handler, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/route", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestShardAffinity: the same request body lands on the same backend every
// time — the consistent-hash contract cache locality depends on.
func TestShardAffinity(t *testing.T) {
	a, b := newStubBackend(t), newStubBackend(t)
	rt := newTestRouter(t, Config{Backends: []string{a.URL, b.URL}})
	h := rt.Handler()

	body := routeBody(t, 7, "")
	first := postRoute(t, h, body, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body)
	}
	home := first.Header().Get(BackendHeader)
	if home == "" {
		t.Fatal("no X-Merlin-Backend header")
	}
	for i := 0; i < 5; i++ {
		rec := postRoute(t, h, body, nil)
		if got := rec.Header().Get(BackendHeader); got != home {
			t.Fatalf("request %d moved from %s to %s", i, home, got)
		}
	}
}

// TestFailoverOnConnectionError: the home replica is unreachable; the
// request lands on the next replica and the client sees a clean 200.
func TestFailoverOnConnectionError(t *testing.T) {
	dead := deadURL(t)
	live := newStubBackend(t)
	rt := newTestRouter(t, Config{Backends: []string{dead, live.URL}})
	h := rt.Handler()

	body := bodyHomedAt(t, rt, dead, "")
	rec := postRoute(t, h, body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(BackendHeader); got != live.URL {
		t.Fatalf("served by %s, want failover to %s", got, live.URL)
	}
	st := rt.Stats()
	if st.Backends[dead].Failures == 0 {
		t.Error("dead backend: want breaker failure recorded")
	}
	if st.Counters["forward.failovers"] == 0 {
		t.Error("want forward.failovers counter incremented")
	}
}

// Test4xxRelaysWithoutFailover: a 4xx is a verdict about the request; the
// router must relay it and never burn a failover attempt on it.
func Test4xxRelaysWithoutFailover(t *testing.T) {
	a, b := newStubBackend(t), newStubBackend(t)
	rt := newTestRouter(t, Config{Backends: []string{a.URL, b.URL}})
	h := rt.Handler()

	body := bodyHomedAt(t, rt, a.URL, "")
	a.routeStatus.Store(http.StatusBadRequest)
	rec := postRoute(t, h, body, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want the backend's 400 relayed", rec.Code)
	}
	if b.hits.Load() != 0 {
		t.Fatal("4xx must not fail over to the next replica")
	}
	st := rt.Stats()
	if st.Backends[a.URL].Failures != 0 {
		t.Error("4xx must not count as a breaker failure")
	}
}

// Test503FailsOverWithoutDrain: a backend answering 503 is alive but
// refusing work. Each request fails over, the 503 counts as an answer (no
// breaker failure), and nothing drains the backend: only gossip does that.
func Test503FailsOverWithoutDrain(t *testing.T) {
	a, b := newStubBackend(t), newStubBackend(t)
	rt := newTestRouter(t, Config{Backends: []string{a.URL, b.URL}})
	h := rt.Handler()

	body := bodyHomedAt(t, rt, a.URL, "")
	a.routeStatus.Store(http.StatusServiceUnavailable)
	for i := 0; i < 2; i++ {
		rec := postRoute(t, h, body, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if got := rec.Header().Get(BackendHeader); got != b.URL {
			t.Fatalf("request %d served by %s, want %s", i, got, b.URL)
		}
	}
	if n := a.hits.Load(); n != 2 {
		t.Errorf("home asked %d times, want 2 (a 503 does not drain)", n)
	}
	if abs := rt.Stats().Backends[a.URL]; abs.State != "closed" || abs.Failures != 0 || abs.Drained {
		t.Errorf("a 503 is an answer, not a failure or a drain: got %+v", abs)
	}
}

// TestBreakerOpensThenRecovers walks the whole loop through real requests:
// repeated 500s open the home's breaker (requests skip it), the backend
// heals, the ejection timeout expires, a half-open trial succeeds, and the
// breaker closes with the recovery visible in stats.
func TestBreakerOpensThenRecovers(t *testing.T) {
	a, b := newStubBackend(t), newStubBackend(t)
	clk := struct {
		mu  sync.Mutex
		now time.Time
	}{now: time.Unix(1000, 0)}
	rt := newTestRouter(t, Config{
		Backends:         []string{a.URL, b.URL},
		FailureThreshold: 2,
		EjectBase:        time.Minute,
		EjectMax:         time.Minute,
		now: func() time.Time {
			clk.mu.Lock()
			defer clk.mu.Unlock()
			return clk.now
		},
	})
	h := rt.Handler()

	body := bodyHomedAt(t, rt, a.URL, "")
	a.routeStatus.Store(http.StatusInternalServerError)
	for i := 0; i < 2; i++ {
		if rec := postRoute(t, h, body, nil); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d (replica should absorb)", i, rec.Code)
		}
	}
	st := rt.Stats()
	if got := st.Backends[a.URL].State; got != "open" {
		t.Fatalf("after %d 500s: breaker %s, want open", 2, got)
	}

	// While open, requests skip the home entirely.
	hitsBefore := a.hits.Load()
	postRoute(t, h, body, nil)
	if a.hits.Load() != hitsBefore {
		t.Error("open breaker: home still receiving requests")
	}

	// Heal the backend, let the ejection timeout lapse; the next request is
	// the half-open trial and closes the breaker.
	a.routeStatus.Store(0)
	clk.mu.Lock()
	clk.now = clk.now.Add(5 * time.Minute)
	clk.mu.Unlock()
	rec := postRoute(t, h, body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("trial request: status %d", rec.Code)
	}
	if got := rec.Header().Get(BackendHeader); got != a.URL {
		t.Fatalf("trial served by %s, want recovered home %s", got, a.URL)
	}
	abs := rt.Stats().Backends[a.URL]
	if abs.State != "closed" || abs.Recovers != 1 {
		t.Fatalf("want closed with recovers=1, got %+v", abs)
	}
}

// TestAllBackendsDownIsTruthful503: when every replica is unreachable the
// client gets a retryable 503 no_ready_backend, not a hang or a 502 soup.
func TestAllBackendsDownIsTruthful503(t *testing.T) {
	rt := newTestRouter(t, Config{Backends: []string{deadURL(t), deadURL(t)}})
	h := rt.Handler()

	rec := postRoute(t, h, routeBody(t, 1, ""), nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	var eb service.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("unparseable error body: %v", err)
	}
	if eb.Code != "no_ready_backend" {
		t.Fatalf("code %q, want no_ready_backend", eb.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("want Retry-After on retryable 503")
	}
}

// TestQoSRateDeny: a tenant past its rate gets 429 tenant_rate_limited and
// its request never reaches a backend; other tenants are untouched.
func TestQoSRateDeny(t *testing.T) {
	a := newStubBackend(t)
	rt := newTestRouter(t, Config{
		Backends: []string{a.URL},
		QoS:      qos.Config{Rate: 0.001, Burst: 1, MaxConcurrent: -1},
	})
	h := rt.Handler()

	// Flow I is not degradable: no overdraft, straight to 429.
	body := routeBody(t, 1, "I")
	hot := map[string]string{service.TenantHeader: "hot"}
	if rec := postRoute(t, h, body, hot); rec.Code != http.StatusOK {
		t.Fatalf("first request: %d", rec.Code)
	}
	rec := postRoute(t, h, body, hot)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", rec.Code)
	}
	var eb service.ErrorBody
	_ = json.Unmarshal(rec.Body.Bytes(), &eb)
	if eb.Code != "tenant_rate_limited" {
		t.Fatalf("code %q, want tenant_rate_limited", eb.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	hits := a.hits.Load()
	// A different tenant sails through: isolation, not fleet-wide limiting.
	if rec := postRoute(t, h, body, map[string]string{service.TenantHeader: "calm"}); rec.Code != http.StatusOK {
		t.Fatalf("other tenant: %d, want 200", rec.Code)
	}
	if a.hits.Load() != hits+1 {
		t.Error("denied request leaked to the backend or calm tenant was dropped")
	}
}

// TestQoSDegradedTier: an over-rate tenant whose request is degradable gets
// forwarded with allow_degraded set instead of a 429, to the same home the
// plain request went to.
func TestQoSDegradedTier(t *testing.T) {
	a, b := newStubBackend(t), newStubBackend(t)
	rt := newTestRouter(t, Config{
		Backends: []string{a.URL, b.URL},
		QoS:      qos.Config{Rate: 0.001, Burst: 1, MaxConcurrent: -1},
	})
	h := rt.Handler()

	body := routeBody(t, 1, "III")
	hot := map[string]string{service.TenantHeader: "hot"}
	first := postRoute(t, h, body, hot)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d", first.Code)
	}
	rec := postRoute(t, h, body, hot)
	if rec.Code != http.StatusOK {
		t.Fatalf("degradable over-rate request: %d, want 200 via overdraft", rec.Code)
	}
	home := first.Header().Get(BackendHeader)
	if got := rec.Header().Get(BackendHeader); got != home {
		t.Fatalf("stamped request served by %s, want the plain request's home %s", got, home)
	}
	served := a
	if home == b.URL {
		served = b
	}
	var fwd service.RouteRequest
	if err := json.Unmarshal(served.lastBody.Load().([]byte), &fwd); err != nil {
		t.Fatal(err)
	}
	if !fwd.AllowDegraded {
		t.Fatal("over-rate degradable request forwarded without allow_degraded")
	}
	if rt.Stats().Counters["qos.degraded"] == 0 {
		t.Error("want qos.degraded counter incremented")
	}
}

// TestQoSConcurrencyDeny: the in-flight quota caps a tenant that holds
// connections open.
func TestQoSConcurrencyDeny(t *testing.T) {
	a := newStubBackend(t)
	a.routeDelay.Store(int64(200 * time.Millisecond))
	rt := newTestRouter(t, Config{
		Backends: []string{a.URL},
		QoS:      qos.Config{Rate: -1, MaxConcurrent: 1},
	})
	h := rt.Handler()

	body := routeBody(t, 1, "I")
	hot := map[string]string{service.TenantHeader: "hot"}
	done := make(chan int, 1)
	go func() { done <- postRoute(t, h, body, hot).Code }()
	// Wait until the first request is actually in flight at the backend.
	deadline := time.Now().Add(2 * time.Second)
	for a.hits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}
	rec := postRoute(t, h, body, hot)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second in-flight request: %d, want 429", rec.Code)
	}
	var eb service.ErrorBody
	_ = json.Unmarshal(rec.Body.Bytes(), &eb)
	if eb.Code != "tenant_concurrency" {
		t.Fatalf("code %q, want tenant_concurrency", eb.Code)
	}
	if got := <-done; got != http.StatusOK {
		t.Fatalf("first request: %d", got)
	}
}

// TestHedgedRead: a repeat fingerprint with a slow home gets raced against
// the next replica; the fast replica's answer wins.
func TestHedgedRead(t *testing.T) {
	a, b := newStubBackend(t), newStubBackend(t)
	rt := newTestRouter(t, Config{
		Backends:   []string{a.URL, b.URL},
		HedgeDelay: 2 * time.Millisecond,
	})
	h := rt.Handler()

	body := bodyHomedAt(t, rt, a.URL, "")
	// First request: fingerprint unseen, no hedge, home serves.
	if rec := postRoute(t, h, body, nil); rec.Header().Get(BackendHeader) != a.URL {
		t.Fatalf("first request not served by home")
	}
	// Slow the home down; the repeat triggers the hedge and the replica wins.
	a.routeDelay.Store(int64(300 * time.Millisecond))
	start := time.Now()
	rec := postRoute(t, h, body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged request: %d", rec.Code)
	}
	if got := rec.Header().Get(BackendHeader); got != b.URL {
		t.Fatalf("hedged request served by %s, want replica %s", got, b.URL)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Errorf("hedged request took %v — hedge did not cut the tail", d)
	}
	c := rt.Stats().Counters
	if c["hedge.fired"] == 0 || c["hedge.first_win"] == 0 {
		t.Errorf("want hedge.fired and hedge.first_win counters, got %v", c)
	}
}

// TestJobPollUnreachableOwnerIs503: a job acknowledged by a backend that is
// now down must poll as retryable 503, never as 404 — the job is not lost,
// its owner's WAL will re-run it.
func TestJobPollUnreachableOwnerIs503(t *testing.T) {
	a, b := newStubBackend(t), newStubBackend(t)
	rt := newTestRouter(t, Config{Backends: []string{a.URL, b.URL}})
	h := rt.Handler()

	rt.rememberOwner("job-123", a.URL)
	a.Close() // owner dies holding the job

	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/job-123", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (owner down ≠ job lost); body %s", rec.Code, rec.Body)
	}
	var eb service.ErrorBody
	_ = json.Unmarshal(rec.Body.Bytes(), &eb)
	if eb.Code != "no_ready_backend" {
		t.Fatalf("code %q, want no_ready_backend", eb.Code)
	}
}

// TestJobPollScatters404: with no owner hint and no backend knowing the
// job, the honest 404 relays once every backend has been asked.
func TestJobPollScatters404(t *testing.T) {
	a, b := newStubBackend(t), newStubBackend(t)
	rt := newTestRouter(t, Config{Backends: []string{a.URL, b.URL}})
	h := rt.Handler()

	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/ghost", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want scattered 404", rec.Code)
	}
}

// TestReadyzReflectsBackendHealth: the router is ready iff at least one
// backend could take work.
func TestReadyzReflectsBackendHealth(t *testing.T) {
	a, b := newStubBackend(t), newStubBackend(t)
	rt := newTestRouter(t, Config{
		Backends:   []string{a.URL, b.URL},
		GossipSelf: "http://router-under-test",
	})
	h := rt.Handler()

	get := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	if got := get("/v1/readyz"); got != http.StatusOK {
		t.Fatalf("readyz with healthy backends: %d", got)
	}
	for _, u := range []string{a.URL, b.URL} {
		seedGossip(t, rt, gossip.Digest{
			Node: u, Incarnation: 1, Seq: 1,
			State: gossip.Alive, Role: gossip.RoleBackend, Ready: false, Reason: "draining",
		})
	}
	if got := get("/v1/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz with all backends drained: %d, want 503", got)
	}
	// Liveness never flips: a router with no backends is still a process
	// worth keeping alive.
	if got := get("/v1/healthz"); got != http.StatusOK {
		t.Fatalf("healthz: %d, want 200 always", got)
	}
}

// TestStatsShape sanity-checks the /v1/stats document the chaos drill and
// dashboards consume.
func TestStatsShape(t *testing.T) {
	a := newStubBackend(t)
	rt := newTestRouter(t, Config{Backends: []string{a.URL}})
	h := rt.Handler()

	postRoute(t, h, routeBody(t, 1, ""), map[string]string{service.TenantHeader: "acme"})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.RingBackends != 1 || st.ReadyBackends != 1 {
		t.Errorf("ring geometry wrong: %+v", st)
	}
	if _, ok := st.Backends[a.URL]; !ok {
		t.Error("stats missing backend row")
	}
	if _, ok := st.Tenants["acme"]; !ok {
		t.Error("stats missing tenant row")
	}
	if st.Counters["requests.route"] == 0 {
		t.Error("stats missing request counter")
	}
}

// TestRouteTraceReachable: a proxied route names its router trace in the
// TraceHeader, and GET /v1/trace/{id} returns that trace with the pick and
// forward spans of the hop that served it. With router tracing disabled the
// header is absent.
func TestRouteTraceReachable(t *testing.T) {
	a, b := newStubBackend(t), newStubBackend(t)
	rt := newTestRouter(t, Config{Backends: []string{a.URL, b.URL}})
	h := rt.Handler()

	rec := postRoute(t, h, routeBody(t, 3, ""), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	served := rec.Header().Get(BackendHeader)
	id := rec.Header().Get(TraceHeader)
	if id == "" {
		t.Fatalf("no %s header on a traced route", TraceHeader)
	}

	get := httptest.NewRecorder()
	h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/v1/trace/"+id, nil))
	if get.Code != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s: status %d: %s", id, get.Code, get.Body)
	}
	var tr trace.TraceJSON
	if err := json.Unmarshal(get.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != id || tr.Name != "proxy.route" {
		t.Fatalf("got trace %q named %q, want %q named proxy.route", tr.TraceID, tr.Name, id)
	}
	spans := map[string]trace.SpanJSON{}
	for _, sp := range tr.Spans {
		spans[sp.Name] = sp
	}
	if pick, ok := spans["router.pick"]; !ok || pick.Attrs["home"] != served {
		t.Errorf("router.pick span %+v, want home %s", pick, served)
	}
	if fwd, ok := spans["router.forward"]; !ok || fwd.Attrs["backend"] != served || fwd.Attrs["status"] != "200" {
		t.Errorf("router.forward span %+v, want backend %s status 200", fwd, served)
	}

	off := newTestRouter(t, Config{Backends: []string{a.URL}, TraceRing: -1})
	if rec := postRoute(t, off.Handler(), routeBody(t, 3, ""), nil); rec.Header().Get(TraceHeader) != "" {
		t.Errorf("untraced router sent %s %q", TraceHeader, rec.Header().Get(TraceHeader))
	}
}
