package gossip

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fakeClock lets the suspicion tests drive staleness without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestNode(t *testing.T, self string, clock *fakeClock) *Node {
	t.Helper()
	cfg := Config{Self: self, Interval: -1} // no loop; tests drive merges
	if clock != nil {
		cfg.now = clock.now
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", self, err)
	}
	return n
}

func mergeDigests(t *testing.T, n *Node, ds ...Digest) {
	t.Helper()
	if err := n.Merge(context.Background(), EncodePacket(ds)); err != nil {
		t.Fatalf("Merge: %v", err)
	}
}

func evidence(t *testing.T, n *Node, node string) Member {
	t.Helper()
	m, ok := n.Evidence(node)
	if !ok {
		t.Fatalf("no evidence for %s", node)
	}
	return m
}

// TestMergeOrdering pins the claim-ordering rule: higher (incarnation, seq)
// wins; at equal freshness the worse state wins; stale claims lose.
func TestMergeOrdering(t *testing.T) {
	n := newTestNode(t, "self", nil)

	mergeDigests(t, n, Digest{Node: "b1", Incarnation: 1, Seq: 5, State: Alive, QueueUtil: 0.2})
	if got := evidence(t, n, "b1"); got.Digest.Seq != 5 || got.Digest.State != Alive {
		t.Fatalf("initial merge: %+v", got.Digest)
	}

	// Older seq: ignored.
	mergeDigests(t, n, Digest{Node: "b1", Incarnation: 1, Seq: 3, State: Dead})
	if got := evidence(t, n, "b1"); got.Digest.State != Alive {
		t.Errorf("stale Dead claim overrode fresh Alive: %+v", got.Digest)
	}

	// Equal (inc, seq), worse state: the suspicion is adopted.
	mergeDigests(t, n, Digest{Node: "b1", Incarnation: 1, Seq: 5, State: Suspect})
	if got := evidence(t, n, "b1"); got.Digest.State != Suspect {
		t.Errorf("equal-freshness Suspect not adopted: %+v", got.Digest)
	}

	// Equal (inc, seq), better state: hearsay of health does NOT un-suspect.
	mergeDigests(t, n, Digest{Node: "b1", Incarnation: 1, Seq: 5, State: Alive})
	if got := evidence(t, n, "b1"); got.Digest.State != Suspect {
		t.Errorf("equal-freshness Alive refuted a suspicion without new evidence: %+v", got.Digest)
	}

	// The subject speaking at seq+1 refutes the suspicion.
	mergeDigests(t, n, Digest{Node: "b1", Incarnation: 1, Seq: 6, State: Alive, QueueUtil: 0.9})
	if got := evidence(t, n, "b1"); got.Digest.State != Alive || got.Digest.QueueUtil != 0.9 {
		t.Errorf("fresh self-publish did not win: %+v", got.Digest)
	}

	// A new incarnation outranks any seq of the old one.
	mergeDigests(t, n, Digest{Node: "b1", Incarnation: 2, Seq: 0, State: Alive})
	if got := evidence(t, n, "b1"); got.Digest.Incarnation != 2 {
		t.Errorf("incarnation bump did not win: %+v", got.Digest)
	}
}

// TestSuspicionBeforeEviction drives the staleness sweep with a fake clock:
// silence must pass through Suspect before Dead, and fresh evidence at any
// point resets the member to Alive.
func TestSuspicionBeforeEviction(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	n := newTestNode(t, "self", clock)
	mergeDigests(t, n, Digest{Node: "b1", Incarnation: 1, Seq: 1, State: Alive})

	n.sweep(clock.now())
	if got := evidence(t, n, "b1"); got.Digest.State != Alive {
		t.Fatalf("fresh member swept to %v", got.Digest.State)
	}

	clock.advance(n.cfg.suspectAfter() + time.Millisecond)
	n.sweep(clock.now())
	if got := evidence(t, n, "b1"); got.Digest.State != Suspect {
		t.Fatalf("stale member not suspected: %v", got.Digest.State)
	}

	// Not yet deadAfter past suspicion: still Suspect.
	n.sweep(clock.now())
	if got := evidence(t, n, "b1"); got.Digest.State != Suspect {
		t.Fatalf("member died without deadAfter elapsing: %v", got.Digest.State)
	}

	clock.advance(n.cfg.deadAfter() + time.Millisecond)
	n.sweep(clock.now())
	if got := evidence(t, n, "b1"); got.Digest.State != Dead {
		t.Fatalf("member not dead after suspectAfter+deadAfter: %v", got.Digest.State)
	}

	// The revenant speaks: fresh evidence resurrects it.
	mergeDigests(t, n, Digest{Node: "b1", Incarnation: 1, Seq: 2, State: Alive})
	if got := evidence(t, n, "b1"); got.Digest.State != Alive {
		t.Fatalf("fresh digest did not resurrect: %v", got.Digest.State)
	}
}

// TestRefutation pins the self-defense rule: a node that hears itself
// called Suspect or Dead at its current incarnation bumps its incarnation,
// so its next digest outranks the accusation fleet-wide.
func TestRefutation(t *testing.T) {
	n := newTestNode(t, "self", nil)
	first, _, err := DecodePacket(n.Packet())
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Incarnation != 1 {
		t.Fatalf("fresh node at incarnation %d, want 1", first[0].Incarnation)
	}

	mergeDigests(t, n, Digest{Node: "self", Incarnation: 1, Seq: 99, State: Dead})
	after, _, err := DecodePacket(n.Packet())
	if err != nil {
		t.Fatal(err)
	}
	if after[0].Incarnation != 2 {
		t.Fatalf("accused node at incarnation %d, want 2 (refutation)", after[0].Incarnation)
	}
	if !newer(after[0], Digest{Node: "self", Incarnation: 1, Seq: 99}) {
		t.Fatal("refuting digest does not outrank the accusation")
	}

	// Hearing ourselves Alive is not an accusation — no bump.
	mergeDigests(t, n, Digest{Node: "self", Incarnation: 2, Seq: 1, State: Alive})
	again, _, _ := DecodePacket(n.Packet())
	if again[0].Incarnation != 2 {
		t.Fatalf("Alive hearsay bumped incarnation to %d", again[0].Incarnation)
	}
}

// TestPushPullConvergence runs two real nodes over HTTP (httptest servers,
// real transport, real loops) and checks that each learns the other's
// payload — including a payload update — within a few intervals.
func TestPushPullConvergence(t *testing.T) {
	const interval = 10 * time.Millisecond
	// A node's name is its own base URL, which only exists once the server
	// is listening — so bind first, then build the node into the mux.
	newNode := func(peers []string) (*Node, *httptest.Server) {
		mux := http.NewServeMux()
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		n, err := New(Config{
			Self: srv.URL, Role: RoleBackend, Peers: peers,
			Interval: interval, Transport: HTTPTransport(&http.Client{Timeout: time.Second}),
		})
		if err != nil {
			t.Fatal(err)
		}
		mux.HandleFunc("POST "+GossipPath, Handler(n))
		return n, srv
	}

	// b seeds from a; a learns b from b's first push — one seed edge is
	// enough for a full mesh.
	na, sa := newNode(nil)
	nb, sb := newNode([]string{sa.URL})

	na.SetLocal(true, "", 0.5, 1, 10)
	nb.SetLocal(true, "", 0.25, 0, 20)
	na.Start()
	nb.Start()
	defer na.Stop()
	defer nb.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		ma, oka := na.Evidence(sb.URL)
		mb, okb := nb.Evidence(sa.URL)
		if oka && okb &&
			ma.Digest.QueueUtil == 0.25 && ma.Digest.StoreHighWater == 20 &&
			mb.Digest.QueueUtil == 0.5 && mb.Digest.Tier == 1 {
			return
		}
		time.Sleep(interval)
	}
	t.Fatalf("views did not converge: a=%+v b=%+v", na.Members(), nb.Members())
}

// TestAnnounceReachesEveryPeer: a node that is about to stop pushes its last
// digest to every peer it knows — seeds and learned members alike — without
// waiting for a tick, so a drain is heard before the node goes quiet.
func TestAnnounceReachesEveryPeer(t *testing.T) {
	nodes := map[string]*Node{}
	transport := func(ctx context.Context, peer string, packet []byte) ([]byte, error) {
		return nodes[peer].HandlePacket(ctx, packet)
	}
	for _, name := range []string{"b2", "r1"} {
		nodes[name] = newTestNode(t, name, nil)
	}
	b1, err := New(Config{Self: "b1", Peers: []string{"b2"}, Interval: -1, Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	nodes["b1"] = b1
	// r1 is no seed of b1's; b1 knows it only as a learned member.
	mergeDigests(t, b1, Digest{Node: "r1", Incarnation: 1, Seq: 1, State: Alive, Role: RoleRouter})

	b1.SetLocal(false, "draining", 0, 0, 0)
	b1.Announce(context.Background())
	for _, name := range []string{"b2", "r1"} {
		if got := evidence(t, nodes[name], "b1"); got.Digest.Ready || got.Digest.Reason != "draining" {
			t.Errorf("%s heard b1 as %+v, want the draining digest", name, got.Digest)
		}
	}
}
