package router

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring with virtual nodes. Each backend is hashed
// onto the ring at `replicas` points ("backend#0", "backend#1", ...); a key
// lands at the first vnode clockwise from its hash and its replica set is
// the distinct backends encountered walking on from there.
//
// MERLIN's semi-order-independence is what makes this sound: the canonical
// net fingerprint (internal/net/canon.go) is invariant under sink
// presentation order, so the same routing problem always hashes to the same
// arc of the ring — the backend that computed it holds it in cache, and a
// re-submitted problem finds that cache without any shared state between
// routers.
//
// The ring is immutable after construction. Availability is deliberately
// NOT part of the ring: a dead or draining backend is skipped by the caller
// at pick time, so the hash space never moves — when the backend comes
// back, its keys come back to it (and to its still-warm cache), instead of
// resharding the fleet twice.
type ring struct {
	points   []ringPoint // sorted by hash
	backends []string    // distinct backend IDs, construction order
}

type ringPoint struct {
	hash uint64
	idx  int // index into backends
}

// newRing builds the ring. replicas is the vnode count per backend; 64 is
// plenty for single-digit fleets (keyspace imbalance ~ 1/sqrt(replicas)).
func newRing(backends []string, replicas int) (*ring, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("router: ring needs at least one backend")
	}
	if replicas <= 0 {
		replicas = 64
	}
	seen := map[string]bool{}
	r := &ring{}
	for _, b := range backends {
		if b == "" {
			return nil, fmt.Errorf("router: empty backend URL")
		}
		if seen[b] {
			return nil, fmt.Errorf("router: duplicate backend %q", b)
		}
		seen[b] = true
		idx := len(r.backends)
		r.backends = append(r.backends, b)
		for v := 0; v < replicas; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", b, v)
			r.points = append(r.points, ringPoint{hash: h.Sum64(), idx: idx})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].idx < r.points[j].idx
	})
	return r, nil
}

// Ring exposes the consistent-hash ring to layers below the router.
// cmd/merlind builds one over the same backend URLs and vnode count as the
// routers and injects it into the journal replicator as its placement
// function — every node then computes the same replica set for a key with
// no coordination, and the dependency arrow keeps pointing router→service,
// never back.
type Ring struct{ r *ring }

// NewRing builds an exported ring; replicas ≤ 0 takes the default 64.
func NewRing(backends []string, replicas int) (*Ring, error) {
	r, err := newRing(backends, replicas)
	if err != nil {
		return nil, err
	}
	return &Ring{r: r}, nil
}

// PickString places a string key (e.g. a result-store key): sha256-hashed
// to a ring position the same way shardKey hashes canon bytes, then walked
// clockwise. Element 0 is the key's home, the rest its replica order.
func (r *Ring) PickString(key string) []string {
	sum := sha256.Sum256([]byte(key))
	return r.r.pick(binary.BigEndian.Uint64(sum[:8]))
}

// pick returns every distinct backend in ring order starting at the key's
// position: element 0 is the key's home, element 1 the first failover
// replica, and so on. The caller filters for availability — keeping the
// full ordered list here means "skip the dead one" never changes where the
// live ones sit.
func (r *ring) pick(key uint64) []string {
	out := make([]string, 0, len(r.backends))
	taken := make([]bool, len(r.backends))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for i := 0; i < len(r.points) && len(out) < len(r.backends); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !taken[p.idx] {
			taken[p.idx] = true
			out = append(out, r.backends[p.idx])
		}
	}
	return out
}
