package router

import (
	"net/http"
	"testing"
	"time"

	"merlin/internal/gossip"
)

// seedGossip installs a digest about one backend into the router's gossip
// node as if it had just merged it off the wire.
func seedGossip(t *testing.T, rt *Router, d gossip.Digest) {
	t.Helper()
	if err := rt.gossip.Merge(t.Context(), gossip.EncodePacket([]gossip.Digest{d})); err != nil {
		t.Fatal(err)
	}
}

// TestGossipDrainsAndUndrains pins the one drain signal: a not-ready digest
// for a backend keeps new work off it — without touching its breaker — and
// a newer ready digest brings its keys home again.
func TestGossipDrainsAndUndrains(t *testing.T) {
	a, b := newStubBackend(t), newStubBackend(t)
	rt := newTestRouter(t, Config{
		Backends:   []string{a.URL, b.URL},
		GossipSelf: "http://router-under-test",
	})
	h := rt.Handler()
	body := bodyHomedAt(t, rt, a.URL, "")

	seedGossip(t, rt, gossip.Digest{
		Node: a.URL, Incarnation: 1, Seq: 1,
		State: gossip.Alive, Role: gossip.RoleBackend, Ready: false, Reason: "draining",
	})
	rec := postRoute(t, h, body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(BackendHeader); got != b.URL {
		t.Fatalf("served by %s, want the next replica %s", got, b.URL)
	}
	if n := a.hits.Load(); n != 0 {
		t.Errorf("drained home got %d requests, want 0", n)
	}
	st := rt.Stats()
	if abs := st.Backends[a.URL]; !abs.Drained || abs.State != "closed" || abs.Failures != 0 {
		t.Errorf("drained home: want drained with a closed breaker and 0 failures, got %+v", abs)
	}
	if st.ReadyBackends != 1 {
		t.Errorf("ready_backends = %d, want 1", st.ReadyBackends)
	}

	seedGossip(t, rt, gossip.Digest{
		Node: a.URL, Incarnation: 1, Seq: 2,
		State: gossip.Alive, Role: gossip.RoleBackend, Ready: true,
	})
	rec = postRoute(t, h, body, nil)
	if got := rec.Header().Get(BackendHeader); rec.Code != http.StatusOK || got != a.URL {
		t.Fatalf("after a ready digest: status %d from %s, want 200 from home %s", rec.Code, got, a.URL)
	}
	if rt.Stats().Backends[a.URL].Drained {
		t.Error("home still drained after a newer ready digest")
	}
}

// TestFleetBrownoutLevels drives the fleet estimator directly with merged
// digests: pressure above high water raises immediately, recovery needs the
// cooldown, and dead members drop out of the estimate.
func TestFleetBrownoutLevels(t *testing.T) {
	rt := newTestRouter(t, Config{
		Backends:      []string{deadURL(t), deadURL(t)},
		GossipSelf:    "http://router-under-test",
		FleetBrownout: true,
		FleetCooldown: 2,
	})
	interval := 200 * time.Millisecond

	calm := func(node string, seq uint64) gossip.Digest {
		return gossip.Digest{Node: node, Incarnation: 1, Seq: seq,
			State: gossip.Alive, Role: gossip.RoleBackend, Ready: true, QueueUtil: 0.1}
	}
	hot := func(node string, seq uint64) gossip.Digest {
		return gossip.Digest{Node: node, Incarnation: 1, Seq: seq,
			State: gossip.Alive, Role: gossip.RoleBackend, Ready: true, QueueUtil: 0.95, Tier: 2}
	}

	seedGossip(t, rt, calm("b1", 1))
	seedGossip(t, rt, calm("b2", 1))
	rt.fleetSample(interval)
	if got := rt.fleetLevel(); got != 0 {
		t.Fatalf("calm fleet at level %d", got)
	}

	// One hot backend of two: mean pressure ~0.53, below the 0.7 default.
	seedGossip(t, rt, hot("b1", 2))
	rt.fleetSample(interval)
	if got := rt.fleetLevel(); got != 0 {
		t.Fatalf("half-hot fleet at level %d, want 0", got)
	}

	// Both hot: raise immediately, straight past level 1 to 2 (≥ 0.85).
	seedGossip(t, rt, hot("b2", 2))
	rt.fleetSample(interval)
	if got := rt.fleetLevel(); got != 2 {
		t.Fatalf("saturated fleet at level %d, want 2", got)
	}

	// Router digests must not dilute the estimate.
	seedGossip(t, rt, gossip.Digest{Node: "r2", Incarnation: 1, Seq: 1,
		State: gossip.Alive, Role: gossip.RoleRouter, Ready: true, QueueUtil: 0})
	rt.fleetSample(interval)
	if got := rt.fleetLevel(); got != 2 {
		t.Fatalf("an idle router digest lowered the fleet level to %d", got)
	}

	// Recovery: calm samples lower one level per cooldown, not instantly.
	seedGossip(t, rt, calm("b1", 3))
	seedGossip(t, rt, calm("b2", 3))
	rt.fleetSample(interval)
	if got := rt.fleetLevel(); got != 2 {
		t.Fatalf("level dropped without cooldown: %d", got)
	}
	rt.fleetSample(interval)
	if got := rt.fleetLevel(); got != 1 {
		t.Fatalf("level after first cooldown = %d, want 1", got)
	}
	rt.fleetSample(interval)
	rt.fleetSample(interval)
	if got := rt.fleetLevel(); got != 0 {
		t.Fatalf("level after second cooldown = %d, want 0", got)
	}
}
