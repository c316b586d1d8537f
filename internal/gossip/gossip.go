// Package gossip is a SWIM-style anti-entropy health layer for the merlin
// fleet. Every router and durable backend runs a Node that periodically
// push-pulls digest packets with a few random peers: the node sends its
// whole membership view (its own digest plus everything it has heard), the
// peer merges it and replies with its own view, and the sender merges that.
// Evidence therefore spreads epidemically — a router learns a backend is
// draining from the backend's own digest, relayed by any node that heard it.
//
// Claims about one node are totally ordered by (incarnation, seq). A live
// node bumps seq every time it speaks; only the node itself ever bumps its
// incarnation. The merge rule is: higher (incarnation, seq) wins; at equal
// (incarnation, seq) the worse state wins. Crucially, a node that locally
// suspects a peer keeps the peer's (incarnation, seq) and only worsens the
// state — so the suspicion propagates at the subject's own freshness, and
// the subject's very next self-publish (seq+1) refutes it everywhere.
// Suspicion-before-eviction: evidence must first go stale (three gossip
// ticks), then stay stale as long again before a member is marked Dead; a node
// that learns it is suspected or dead at its current incarnation bumps its
// incarnation and is believed again.
//
// The package carries evidence; policy lives with the consumers: the router
// drains a backend while its digest says not ready, the fleet brownout
// controller aggregates gossiped backend pressure, and the replicated store
// uses membership to pick warm peers.
package gossip

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"merlin/internal/faultinject"
	"merlin/internal/trace"
)

// Transport delivers one packet to a peer and returns the peer's reply
// packet (push-pull). Implementations must honor ctx cancellation.
type Transport func(ctx context.Context, peer string, packet []byte) ([]byte, error)

// Config sizes a Node. Zero values take the documented defaults.
type Config struct {
	// Self is this node's name on the wire — by convention its base URL,
	// so consumers can match digests to routable addresses. Required.
	Self string
	// Role is advertised in our digest (backend payloads feed the fleet
	// pressure estimate; router payloads are liveness-only).
	Role Role
	// Peers seeds the membership: names we gossip to before hearing from
	// anyone. Learned members join the candidate set automatically.
	Peers []string
	// Interval is the gossip tick; default DefaultInterval. Negative
	// disables the background loop (the node still merges inbound packets).
	Interval time.Duration
	// Transport sends packets. Required when Interval > 0.
	Transport Transport

	// now substitutes the clock in tests.
	now func() time.Time
}

func (c Config) withDefaults() (Config, error) {
	if c.Self == "" {
		return Config{}, errors.New("gossip: Config.Self is required")
	}
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.Interval > 0 && c.Transport == nil {
		return Config{}, errors.New("gossip: Config.Transport is required when the loop is enabled")
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c, nil
}

// DefaultInterval is the gossip tick when Config.Interval is zero; the
// service and router loops that run at the gossip cadence default to it too.
const DefaultInterval = 200 * time.Millisecond

// fanout is how many peers each tick gossips to.
const fanout = 2

// suspectAfter is how stale a member's evidence may go before we mark it
// Suspect: three ticks. A loopless node (negative Interval, merge-only)
// still needs a positive timer for its sweeps, so it counts default ticks.
func (c Config) suspectAfter() time.Duration {
	if c.Interval < 0 {
		return 3 * DefaultInterval
	}
	return 3 * c.Interval
}

// deadAfter is how long a Suspect member has to refute before Dead: as long
// as it took to suspect it, so silence → Dead in six ticks.
func (c Config) deadAfter() time.Duration { return c.suspectAfter() }

// member is everything we believe about one peer.
type member struct {
	d Digest
	// lastAdvance is when (incarnation, seq) last moved forward — the only
	// thing that counts as fresh evidence. Adopting a worse state at equal
	// freshness deliberately does not touch it.
	lastAdvance time.Time
}

// Node is one gossip participant. Safe for concurrent use.
type Node struct {
	cfg Config

	mu      sync.Mutex
	inc     uint64 // our incarnation
	seq     uint64 // our per-incarnation sequence
	payload Digest // our advertised health (Ready/Reason/QueueUtil/Tier/StoreHighWater)
	members map[string]*member
	rng     *rand.Rand

	sends       atomic.Uint64
	sendFails   atomic.Uint64
	merges      atomic.Uint64
	packetsBad  atomic.Uint64
	verSkipped  atomic.Uint64
	refutations atomic.Uint64
	suspected   atomic.Uint64
	died        atomic.Uint64
	panics      atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a node; Start launches the loop.
func New(cfg Config) (*Node, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// The peer-selection RNG is seeded from the node name: deterministic per
	// node, different across nodes.
	var seed int64
	for _, b := range []byte(c.Self) {
		seed = seed*131 + int64(b)
	}
	n := &Node{
		cfg:     c,
		inc:     1,
		members: make(map[string]*member),
		rng:     rand.New(rand.NewSource(seed | 1)),
		stop:    make(chan struct{}),
	}
	n.payload = Digest{Node: c.Self, Role: c.Role, Ready: true}
	return n, nil
}

// Start launches the gossip loop (no-op when Interval < 0).
func (n *Node) Start() {
	if n.cfg.Interval < 0 {
		return
	}
	n.goGuard("gossip", n.loop)
}

// Stop halts the loop and waits for in-flight exchanges.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// goGuard spawns fn with the repo-wide panic guard: a gossip bug must never
// take the serving process down.
func (n *Node) goGuard(name string, fn func()) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				n.panics.Add(1)
				log.Printf("gossip: %s: recovered panic: %v", name, r)
			}
		}()
		fn()
	}()
}

// SetLocal updates the health payload we advertise. The next emitted digest
// carries it at a fresh seq.
func (n *Node) SetLocal(ready bool, reason string, queueUtil float64, tier uint32, storeHighWater uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.payload.Ready = ready
	n.payload.Reason = reason
	n.payload.QueueUtil = queueUtil
	n.payload.Tier = tier
	n.payload.StoreHighWater = storeHighWater
}

// SetLocalLease updates the lease payload we advertise: the high-water lease
// term this node has granted or claimed, and the takeover claims it stands
// behind. Advertising at every tick is the lease renewal — fresh gossip
// evidence of the node is what keeps its leases live. Claims are copied; the
// caller keeps ownership of its slice.
func (n *Node) SetLocalLease(leaseHighWater uint64, claims []Claim) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.payload.LeaseHighWater = leaseHighWater
	if len(claims) == 0 {
		n.payload.Claims = nil
		return
	}
	n.payload.Claims = append([]Claim(nil), claims...)
}

func (n *Node) loop() {
	tick := time.NewTicker(n.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
			n.tick()
		}
	}
}

// tick runs one gossip round: sweep staleness, then push-pull with fanout
// random peers. Exchanges are sequential with a per-round deadline so one
// hung peer delays, but cannot wedge, the loop.
func (n *Node) tick() {
	now := n.cfg.now()
	n.sweep(now)
	peers := n.pickPeers()
	if len(peers) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.Interval*time.Duration(len(peers)))
	defer cancel()
	for _, p := range peers {
		select {
		case <-n.stop:
			return
		default:
		}
		n.Exchange(ctx, p)
	}
}

// Announce push-pulls our current view with every known peer, within ctx.
// A node that is about to stop calls it after its last SetLocal: the loop
// may never tick again, and a drain nobody heard drains nothing.
func (n *Node) Announce(ctx context.Context) {
	n.mu.Lock()
	peers := n.knownPeersLocked()
	n.mu.Unlock()
	for _, p := range peers {
		if ctx.Err() != nil {
			return
		}
		n.Exchange(ctx, p)
	}
}

// pickPeers selects fanout distinct gossip targets from the known peers.
func (n *Node) pickPeers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	cands := n.knownPeersLocked()
	n.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > fanout {
		cands = cands[:fanout]
	}
	return cands
}

// knownPeersLocked lists the seed list plus every learned member, sorted
// (Dead ones included — gossiping at a revenant is how it learns it was
// declared dead and refutes). Callers hold n.mu.
func (n *Node) knownPeersLocked() []string {
	seen := map[string]bool{n.cfg.Self: true}
	var cands []string
	for _, p := range n.cfg.Peers {
		if !seen[p] {
			seen[p] = true
			cands = append(cands, p)
		}
	}
	for name := range n.members {
		if !seen[name] {
			seen[name] = true
			cands = append(cands, name)
		}
	}
	sort.Strings(cands) // determinism under the name-seeded RNG
	return cands
}

// sweep applies the suspicion timers: Alive and stale → Suspect; Suspect
// and still stale → Dead. Both are local claims made at the subject's own
// (incarnation, seq), so they spread — and are refuted — at the subject's
// freshness.
func (n *Node) sweep(now time.Time) {
	suspectAfter := n.cfg.suspectAfter()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, m := range n.members {
		stale := now.Sub(m.lastAdvance)
		switch {
		case m.d.State == Alive && stale > suspectAfter:
			m.d.State = Suspect
			n.suspected.Add(1)
		case m.d.State == Suspect && stale > suspectAfter+n.cfg.deadAfter():
			m.d.State = Dead
			n.died.Add(1)
		}
	}
}

// Exchange push-pulls with one peer: send our view, merge the reply. A
// failed send is just a missed round — suspicion timers carry the signal.
func (n *Node) Exchange(ctx context.Context, peer string) {
	ctx, sp := trace.StartSpan(ctx, "gossip.send")
	defer sp.End()
	sp.SetAttr("peer", peer)
	n.sends.Add(1)
	if err := faultinject.Fire(faultinject.SiteGossipSend); err != nil {
		n.sendFails.Add(1)
		sp.SetAttr("error", err.Error())
		return
	}
	reply, err := n.cfg.Transport(ctx, peer, n.Packet())
	if err != nil {
		n.sendFails.Add(1)
		sp.SetAttr("error", err.Error())
		return
	}
	if err := n.Merge(ctx, reply); err != nil {
		sp.SetAttr("error", err.Error())
	}
}

// Packet serialises our current view (self digest first, at a fresh seq).
func (n *Node) Packet() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return EncodePacket(n.viewLocked())
}

func (n *Node) viewLocked() []Digest {
	n.seq++
	self := n.payload
	self.Incarnation = n.inc
	self.Seq = n.seq
	self.State = Alive
	out := make([]Digest, 0, 1+len(n.members))
	out = append(out, self)
	names := make([]string, 0, len(n.members))
	for name := range n.members {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, n.members[name].d)
	}
	return out
}

// HandlePacket is the inbound half of push-pull: merge the sender's view,
// reply with ours. The HTTP layer mounts this under POST /v1/gossip.
func (n *Node) HandlePacket(ctx context.Context, body []byte) ([]byte, error) {
	if err := n.Merge(ctx, body); err != nil {
		return nil, err
	}
	return n.Packet(), nil
}

// Merge folds a received packet into our view. A bad packet is dropped
// whole — a partial merge would split the membership view.
func (n *Node) Merge(ctx context.Context, packet []byte) error {
	_, sp := trace.StartSpan(ctx, "gossip.merge")
	defer sp.End()
	if err := faultinject.Fire(faultinject.SiteGossipMerge); err != nil {
		n.packetsBad.Add(1)
		sp.SetAttr("error", err.Error())
		return fmt.Errorf("gossip: merge: %w", err)
	}
	digests, skipped, err := DecodePacket(packet)
	if err != nil {
		n.packetsBad.Add(1)
		sp.SetAttr("error", err.Error())
		return err
	}
	if skipped > 0 {
		n.verSkipped.Add(uint64(skipped))
	}
	n.merges.Add(1)
	sp.SetAttr("digests", fmt.Sprint(len(digests)))
	now := n.cfg.now()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, d := range digests {
		if d.Node == n.cfg.Self {
			n.mergeSelfLocked(d)
			continue
		}
		n.mergeMemberLocked(d, now)
	}
	return nil
}

// mergeSelfLocked handles claims about us. Someone believing us Suspect or
// Dead at our current (or newer) incarnation gets refuted by bumping our
// incarnation — the next digest we emit outranks every stale claim.
func (n *Node) mergeSelfLocked(d Digest) {
	if d.Incarnation >= n.inc && d.State != Alive {
		n.inc = d.Incarnation + 1
		n.seq = 0
		n.refutations.Add(1)
	}
}

// mergeMemberLocked applies the ordering rule for a claim about a peer:
// higher (incarnation, seq) wins; at equal freshness the worse state wins
// (without refreshing lastAdvance — hearsay of badness is not evidence of
// life).
func (n *Node) mergeMemberLocked(d Digest, now time.Time) {
	m, ok := n.members[d.Node]
	if !ok {
		n.members[d.Node] = &member{d: d, lastAdvance: now}
		return
	}
	switch {
	case newer(d, m.d):
		m.d = d
		m.lastAdvance = now
	case d.Incarnation == m.d.Incarnation && d.Seq == m.d.Seq && d.State > m.d.State:
		m.d.State = d.State
	}
}

// newer reports whether a outranks b in (incarnation, seq) order.
func newer(a, b Digest) bool {
	if a.Incarnation != b.Incarnation {
		return a.Incarnation > b.Incarnation
	}
	return a.Seq > b.Seq
}

// Member is one peer's digest plus the age of its freshest evidence.
type Member struct {
	Digest Digest
	Age    time.Duration
}

// Evidence returns what we believe about one node and how stale that
// belief is. ok is false for nodes never heard of.
func (n *Node) Evidence(node string) (Member, bool) {
	now := n.cfg.now()
	n.mu.Lock()
	defer n.mu.Unlock()
	m, ok := n.members[node]
	if !ok {
		return Member{}, false
	}
	return Member{Digest: m.d, Age: now.Sub(m.lastAdvance)}, true
}

// Members snapshots every known peer (not self), sorted by node name.
func (n *Node) Members() []Member {
	now := n.cfg.now()
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Member, 0, len(n.members))
	names := make([]string, 0, len(n.members))
	for name := range n.members {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := n.members[name]
		out = append(out, Member{Digest: m.d, Age: now.Sub(m.lastAdvance)})
	}
	return out
}

// MemberStats is one member's /v1/stats row.
type MemberStats struct {
	Node           string  `json:"node"`
	State          string  `json:"state"`
	Role           string  `json:"role"`
	Incarnation    uint64  `json:"incarnation"`
	Seq            uint64  `json:"seq"`
	Ready          bool    `json:"ready"`
	Reason         string  `json:"reason,omitempty"`
	QueueUtil      float64 `json:"queue_util"`
	Tier           uint32  `json:"tier"`
	StoreHighWater uint64  `json:"store_high_water"`
	LeaseHighWater uint64  `json:"lease_high_water,omitempty"`
	Claims         []Claim `json:"claims,omitempty"`
	AgeMS          int64   `json:"age_ms"`
}

// Stats is the node's /v1/stats section.
type Stats struct {
	Self           string        `json:"self"`
	Incarnation    uint64        `json:"incarnation"`
	Members        []MemberStats `json:"members"`
	Sends          uint64        `json:"sends"`
	SendFailures   uint64        `json:"send_failures"`
	Merges         uint64        `json:"merges"`
	PacketsDropped uint64        `json:"packets_dropped"`
	VersionSkipped uint64        `json:"version_skipped"`
	Refutations    uint64        `json:"refutations"`
	Suspected      uint64        `json:"suspected"`
	Died           uint64        `json:"died"`
	Panics         uint64        `json:"panics"`
}

// Stats snapshots the node for /v1/stats.
func (n *Node) Stats() Stats {
	members := n.Members()
	n.mu.Lock()
	self, inc := n.cfg.Self, n.inc
	n.mu.Unlock()
	st := Stats{
		Self:           self,
		Incarnation:    inc,
		Members:        make([]MemberStats, 0, len(members)),
		Sends:          n.sends.Load(),
		SendFailures:   n.sendFails.Load(),
		Merges:         n.merges.Load(),
		PacketsDropped: n.packetsBad.Load(),
		VersionSkipped: n.verSkipped.Load(),
		Refutations:    n.refutations.Load(),
		Suspected:      n.suspected.Load(),
		Died:           n.died.Load(),
		Panics:         n.panics.Load(),
	}
	for _, m := range members {
		st.Members = append(st.Members, MemberStats{
			Node:           m.Digest.Node,
			State:          m.Digest.State.String(),
			Role:           m.Digest.Role.String(),
			Incarnation:    m.Digest.Incarnation,
			Seq:            m.Digest.Seq,
			Ready:          m.Digest.Ready,
			Reason:         m.Digest.Reason,
			QueueUtil:      m.Digest.QueueUtil,
			Tier:           m.Digest.Tier,
			StoreHighWater: m.Digest.StoreHighWater,
			LeaseHighWater: m.Digest.LeaseHighWater,
			Claims:         m.Digest.Claims,
			AgeMS:          m.Age.Milliseconds(),
		})
	}
	return st
}
