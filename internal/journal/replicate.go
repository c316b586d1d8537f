package journal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"merlin/internal/faultinject"
	"merlin/internal/trace"
)

// Replicator pushes every durable result to R ring successors and warms
// local misses from those replicas, so a result survives the loss of the
// node that computed it.
//
// Pushes are asynchronous: the local write is already durable and
// acknowledged before replication starts, so a slow or dead peer can only
// delay redundancy, never the response. The queue is bounded and lossy
// under sustained overload (dropped copies are counted, never silent) —
// replication is an availability upgrade, not a second durability vote.
//
// Both directions carry full MRS1 entry bytes (EncodeEntry) and both ends
// re-verify: a receiver rejects a corrupt push with 422 and never stores
// it; a fetcher discards a corrupt reply, counts it, and recomputes. A
// replica can therefore propagate staleness at worst, corruption never.
type Replicator struct {
	cfg ReplicatorConfig

	queue chan repTask
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup

	pending atomic.Int64

	pushes        atomic.Uint64
	pushFails     atomic.Uint64
	pushRejected  atomic.Uint64
	pushFenced    atomic.Uint64
	dropped       atomic.Uint64
	fetches       atomic.Uint64
	fetchHits     atomic.Uint64
	fetchCorrupt  atomic.Uint64
	fetchMisses   atomic.Uint64
	panicsCounter atomic.Uint64
}

// ReplicatorConfig wires a Replicator. Ring and Self are required.
type ReplicatorConfig struct {
	// Self is this backend's own base URL; it is excluded from targets.
	Self string
	// Ring returns the full preference-ordered backend URL list for a key
	// (the router's consistent-hash ring, injected to keep the dependency
	// arrow pointing router→service and not back).
	Ring func(key string) []string
	// Replicas is how many copies to push beyond the local one; default 2.
	Replicas int
	// Client performs the HTTP pushes/fetches; default has a 2s timeout.
	Client *http.Client
	// QueueDepth bounds the async push queue; default 256.
	QueueDepth int
	// RetryDelay spaces push retries; default 50ms.
	RetryDelay time.Duration
}

// replicatorWorkers is how many goroutines drain the push queue;
// pushAttempts is each target's push retry budget.
const (
	replicatorWorkers = 2
	pushAttempts      = 3
)

func (c ReplicatorConfig) withDefaults() (ReplicatorConfig, error) {
	if c.Self == "" {
		return ReplicatorConfig{}, errors.New("journal: replicator: Self is required")
	}
	if c.Ring == nil {
		return ReplicatorConfig{}, errors.New("journal: replicator: Ring is required")
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 2 * time.Second}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 50 * time.Millisecond
	}
	return c, nil
}

type repTask struct {
	key   string
	entry []byte // EncodeEntry bytes, checksummed at enqueue time
	jobID string
	state string
	term  uint64 // lease term the sender holds for jobID (0 = no lease claim)
}

// ReplicaPath prefixes the replica push/fetch endpoint; the entry key
// follows, path-escaped.
const ReplicaPath = "/v1/replica/"

// Headers carrying job identity alongside a replica push, so the receiver
// can answer polls for the origin's jobs after the origin dies. The term
// header is the fencing token: a receiver that has seen a higher term for
// the job refuses the push with 409, which is how a resurrected stale owner
// loses to the successor that claimed its orphan.
const (
	ReplicaJobHeader   = "X-Merlin-Job-Id"
	ReplicaStateHeader = "X-Merlin-Job-State"
	ReplicaTermHeader  = "X-Merlin-Job-Term"
)

// entryContentType labels replica entries on the wire.
const entryContentType = "application/x-merlin-result"

// NewReplicator builds a replicator; Start launches its workers.
func NewReplicator(cfg ReplicatorConfig) (*Replicator, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Replicator{
		cfg:   c,
		queue: make(chan repTask, c.QueueDepth),
		stop:  make(chan struct{}),
	}, nil
}

// Start launches the push workers.
func (r *Replicator) Start() {
	for i := 0; i < replicatorWorkers; i++ {
		r.goGuard(fmt.Sprintf("replicate-%d", i), r.worker)
	}
}

// Stop drains nothing: queued pushes not yet picked up are abandoned (and
// remain counted in pending) — shutdown must not wait on dead peers.
func (r *Replicator) Stop() {
	r.once.Do(func() { close(r.stop) })
	r.wg.Wait()
}

func (r *Replicator) goGuard(name string, fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() {
			if rec := recover(); rec != nil {
				r.panicsCounter.Add(1)
				log.Printf("journal: replicator: %s: recovered panic: %v", name, rec)
			}
		}()
		fn()
	}()
}

// Targets is the preference-ordered replica set for key: the ring order
// with self removed, truncated to Replicas.
func (r *Replicator) Targets(key string) []string {
	all := r.cfg.Ring(key)
	out := make([]string, 0, r.cfg.Replicas)
	for _, t := range all {
		if t == r.cfg.Self {
			continue
		}
		out = append(out, t)
		if len(out) == r.cfg.Replicas {
			break
		}
	}
	return out
}

// Enqueue schedules payload for replication under key. Non-blocking: when
// the queue is full the copy is dropped and counted — the local write is
// already durable, and backpressure here would put dead peers on the
// serving path.
func (r *Replicator) Enqueue(key string, payload []byte, jobID, state string) {
	r.EnqueueJob(key, payload, jobID, state, 0)
}

// EnqueueJob is Enqueue carrying the sender's lease term for jobID as the
// fencing token; term 0 means "no lease semantics" (plain result copy).
func (r *Replicator) EnqueueJob(key string, payload []byte, jobID, state string, term uint64) {
	if len(r.Targets(key)) == 0 {
		return
	}
	t := repTask{key: key, entry: EncodeEntry(payload), jobID: jobID, state: state, term: term}
	select {
	case r.queue <- t:
		r.pending.Add(1)
	default:
		r.dropped.Add(1)
	}
}

// Pending reports queued-or-in-flight pushes. Shutdown uses it for a bounded
// courtesy drain before stopping the workers.
func (r *Replicator) Pending() int64 {
	return r.pending.Load()
}

func (r *Replicator) worker() {
	for {
		select {
		case <-r.stop:
			return
		case t := <-r.queue:
			r.replicate(t)
			r.pending.Add(-1)
		}
	}
}

// replicate pushes one entry to every target, retrying transient failures
// up to the attempt budget. A 422 (receiver verified the entry corrupt) is
// terminal: re-sending the same bytes cannot succeed, and the counter is
// the loud signal.
func (r *Replicator) replicate(t repTask) {
	for _, target := range r.Targets(t.key) {
		for attempt := 0; ; attempt++ {
			err := r.push(target, t)
			if err == nil {
				r.pushes.Add(1)
				break
			}
			if errors.Is(err, errRejected) {
				r.pushRejected.Add(1)
				break
			}
			if errors.Is(err, errFenced) {
				r.pushFenced.Add(1)
				break
			}
			if attempt+1 >= pushAttempts {
				r.pushFails.Add(1)
				break
			}
			select {
			case <-r.stop:
				r.pushFails.Add(1)
				return
			case <-time.After(r.cfg.RetryDelay * time.Duration(attempt+1)):
			}
		}
	}
}

// errRejected marks a push the receiver refused after verifying the entry
// corrupt — terminal, never retried.
var errRejected = errors.New("journal: replica push rejected")

// errFenced marks a push the receiver refused because it has seen a higher
// lease term for the job — the sender lost its ownership while it computed.
// Terminal by design: retrying a fenced write is exactly the split-brain
// double-acknowledgement fencing exists to prevent.
var errFenced = errors.New("journal: replica push fenced by higher lease term")

func (r *Replicator) push(target string, t repTask) error {
	ctx, sp := trace.StartSpan(context.Background(), "store.replicate")
	defer sp.End()
	sp.SetAttr("target", target)
	if err := faultinject.Fire(faultinject.SiteStoreReplicate); err != nil {
		sp.SetAttr("error", err.Error())
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	u := strings.TrimSuffix(target, "/") + ReplicaPath + url.PathEscape(t.key)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(t.entry))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", entryContentType)
	if t.jobID != "" {
		req.Header.Set(ReplicaJobHeader, t.jobID)
		req.Header.Set(ReplicaStateHeader, t.state)
		if t.term > 0 {
			req.Header.Set(ReplicaTermHeader, fmt.Sprintf("%d", t.term))
		}
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusUnprocessableEntity:
		return errRejected
	case resp.StatusCode == http.StatusConflict:
		return errFenced
	case resp.StatusCode >= 300:
		return fmt.Errorf("journal: replica push to %s: status %d", target, resp.StatusCode)
	}
	return nil
}

// Fetch peer-warms key from its replica set: the first replica whose entry
// passes the MRS1 checksum wins. A corrupt reply is discarded and counted
// — never returned, never stored — and the next replica is tried. All
// replicas missing or corrupt → ErrNotFound (the caller recomputes).
func (r *Replicator) Fetch(ctx context.Context, key string) (payload []byte, peer string, err error) {
	ctx, sp := trace.StartSpan(ctx, "store.peerwarm")
	defer sp.End()
	r.fetches.Add(1)
	for _, target := range r.Targets(key) {
		data, ferr := r.fetchOne(ctx, target, key)
		if ferr != nil {
			continue
		}
		if err := faultinject.Fire(faultinject.SiteStorePeerWarm); err != nil {
			// Injected transit corruption: flip one payload bit in the fetched
			// entry. The checksum below must catch it.
			if i := len(storeMagic) + frameHeader; i < len(data) {
				data[i] ^= 0x01
			}
		}
		p, ok := DecodeEntry(data)
		if !ok {
			r.fetchCorrupt.Add(1)
			sp.SetAttr("corrupt_from", target)
			continue
		}
		r.fetchHits.Add(1)
		sp.SetAttr("peer", target)
		return p, target, nil
	}
	r.fetchMisses.Add(1)
	return nil, "", ErrNotFound
}

func (r *Replicator) fetchOne(ctx context.Context, target, key string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	u := strings.TrimSuffix(target, "/") + ReplicaPath + url.PathEscape(key)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("journal: replica fetch from %s: status %d", target, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, int64(MaxRecordSize)+int64(len(storeMagic))+frameHeader+1))
}

// ReplicationStats is the replication section of DurabilityStats.
type ReplicationStats struct {
	Replicas     int    `json:"replicas"`
	Pending      int64  `json:"pending"`
	Pushes       uint64 `json:"pushes"`
	PushFailures uint64 `json:"push_failures"`
	PushRejected uint64 `json:"push_rejected"`
	PushFenced   uint64 `json:"push_fenced"`
	Dropped      uint64 `json:"dropped"`
	Fetches      uint64 `json:"fetches"`
	FetchHits    uint64 `json:"fetch_hits"`
	FetchCorrupt uint64 `json:"fetch_corrupt"`
	FetchMisses  uint64 `json:"fetch_misses"`
	Panics       uint64 `json:"panics"`
}

// Stats snapshots replication activity.
func (r *Replicator) Stats() ReplicationStats {
	return ReplicationStats{
		Replicas:     r.cfg.Replicas,
		Pending:      r.pending.Load(),
		Pushes:       r.pushes.Load(),
		PushFailures: r.pushFails.Load(),
		PushRejected: r.pushRejected.Load(),
		PushFenced:   r.pushFenced.Load(),
		Dropped:      r.dropped.Load(),
		Fetches:      r.fetches.Load(),
		FetchHits:    r.fetchHits.Load(),
		FetchCorrupt: r.fetchCorrupt.Load(),
		FetchMisses:  r.fetchMisses.Load(),
		Panics:       r.panicsCounter.Load(),
	}
}
