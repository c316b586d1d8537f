// Package journal gives merlind crash-safe durability: a segmented,
// append-only write-ahead log plus a checksummed on-disk result store.
//
// The WAL is the source of truth for acknowledged work. Every record is
// framed with a CRC32C (Castagnoli) checksum so replay can tell a complete
// record from a torn or corrupted one; segments roll at a configurable size
// so compaction can reclaim history without rewriting live bytes; and a
// snapshot record supersedes all segments older than itself, which is how
// the log stays bounded under continuous traffic.
//
// Frame format (little-endian), the unit both Append and Replay speak:
//
//	+---------------+---------------+=====================+
//	| length uint32 | crc32c uint32 |  payload (length B) |
//	+---------------+---------------+=====================+
//
// A frame is valid iff 1 <= length <= MaxRecordSize and the checksum of the
// payload matches. Replay stops at the first invalid frame: in the newest
// segment that is the torn tail of an interrupted write and is truncated
// away (the records before it are intact by construction — each append
// writes one whole frame); in an older segment it is latent corruption, and
// the remainder of that segment is skipped with a counter bumped rather
// than trusted.
//
// Durability is what the fsync policy says it is: FsyncAlways makes every
// Append an acknowledged-durable write (one fsync per record), FsyncEvery
// batches fsyncs on a timer (bounded loss window, much higher throughput),
// FsyncNever leaves flushing to the OS (contents survive process death but
// not host death). See DESIGN.md "Durability & crash recovery".
package journal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"merlin/internal/faultinject"
	"merlin/internal/trace"
)

// MaxRecordSize bounds one record's payload; a frame announcing more is
// invalid by definition, which is what stops replay from trusting a torn
// length field and allocating garbage.
const MaxRecordSize = 16 << 20

const frameHeader = 8 // uint32 length + uint32 crc32c

// castagnoli is the CRC32C polynomial table; Castagnoli is the variant with
// hardware support on amd64/arm64, the conventional choice for WAL framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FsyncPolicy says when appended records are forced to stable storage.
type FsyncPolicy string

const (
	// FsyncAlways fsyncs after every append: an acknowledged record survives
	// both process and host death. The strongest and slowest policy; default.
	FsyncAlways FsyncPolicy = "always"
	// FsyncEvery fsyncs on a background interval: acknowledged records
	// survive process death immediately and host death up to one interval
	// late. The throughput policy.
	FsyncEvery FsyncPolicy = "interval"
	// FsyncNever never fsyncs explicitly: records survive process death (the
	// OS holds the page cache) but may be lost on host death.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy parses the -fsync flag form.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case "", FsyncAlways:
		return FsyncAlways, nil
	case FsyncEvery:
		return FsyncEvery, nil
	case FsyncNever:
		return FsyncNever, nil
	}
	return "", fmt.Errorf("journal: unknown fsync policy %q (want always, interval or never)", s)
}

// Options configures a Journal. Zero values take the documented defaults.
type Options struct {
	// SegmentBytes rolls the active segment once it exceeds this size;
	// default 4 MiB.
	SegmentBytes int64
	// Fsync is the durability policy; default FsyncAlways.
	Fsync FsyncPolicy
	// FsyncInterval is the flush cadence under FsyncEvery; default 100ms.
	FsyncInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Fsync == "" {
		o.Fsync = FsyncAlways
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	return o
}

// Errors returned by the journal.
var (
	// ErrClosed means the journal was used after Close.
	ErrClosed = errors.New("journal: closed")
	// ErrReplayFirst means Append was called before Replay established where
	// the valid history ends.
	ErrReplayFirst = errors.New("journal: replay required before append")
)

// Record is one replayed entry.
type Record struct {
	// Snapshot marks the state snapshot that replay starts from, when one
	// exists; it is delivered first, before any segment records.
	Snapshot bool
	// Payload is the record bytes exactly as appended.
	Payload []byte
}

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	// Records is the number of valid records delivered (snapshot included).
	Records int
	// SnapshotUsed reports whether a snapshot seeded the replay.
	SnapshotUsed bool
	// TruncatedBytes is the size of the torn tail cut off the newest segment.
	TruncatedBytes int64
	// CorruptSegments counts older segments whose tails were skipped because
	// of an invalid frame (latent corruption, not a torn write).
	CorruptSegments int
	// SkippedBytes is the total size of those skipped older-segment tails.
	SkippedBytes int64
}

// Stats is a point-in-time snapshot of journal activity since Open.
type Stats struct {
	Appends   uint64
	Fsyncs    uint64
	Segments  int
	Snapshots uint64
	Replay    ReplayStats
}

// Journal is a segmented append-only log. It is safe for concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu         sync.Mutex
	active     *os.File
	activeSeq  uint64
	activeSize int64
	segs       []uint64 // live segment seqs, ascending; activeSeq is last once open
	nextSeq    uint64   // monotone: never reuses a seq a snapshot may have superseded
	replayed   bool
	closed     bool
	dirty      bool // unsynced appends under FsyncEvery

	appends   uint64
	fsyncs    uint64
	snapshots uint64
	replay    ReplayStats

	stopFlush chan struct{}
	flushDone chan struct{}
}

func segName(seq uint64) string  { return fmt.Sprintf("seg-%016x.wal", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// Open scans dir (created if missing) for segments and snapshots. The
// returned journal must Replay before it will Append: replay is what finds
// and truncates a torn tail, so appending first could bury it mid-log.
func Open(dir string, opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, opts: opts}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.nextSeq = 1
	for _, e := range entries {
		var seq uint64
		if n, err := fmt.Sscanf(e.Name(), "seg-%016x.wal", &seq); n == 1 && err == nil {
			j.segs = append(j.segs, seq)
			if seq >= j.nextSeq {
				j.nextSeq = seq + 1
			}
		}
		if n, err := fmt.Sscanf(e.Name(), "snap-%016x.snap", &seq); n == 1 && err == nil && seq >= j.nextSeq {
			j.nextSeq = seq + 1
		}
	}
	sort.Slice(j.segs, func(a, b int) bool { return j.segs[a] < j.segs[b] })
	if opts.Fsync == FsyncEvery {
		j.stopFlush = make(chan struct{})
		j.flushDone = make(chan struct{})
		go j.flushLoop()
	}
	return j, nil
}

// flushLoop is the FsyncEvery background flusher. A panic here (a failing
// disk surfacing through Sync) must not kill the host process: it is
// contained and the loop exits, degrading the policy to FsyncNever until
// restart rather than taking the service down.
func (j *Journal) flushLoop() {
	defer func() { recover(); close(j.flushDone) }()
	t := time.NewTicker(j.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-j.stopFlush:
			return
		case <-t.C:
			j.mu.Lock()
			if j.dirty && !j.closed {
				_ = j.syncLocked()
			}
			j.mu.Unlock()
		}
	}
}

// Replay streams the durable history to fn: the newest valid snapshot first
// (if any), then every valid record of every segment at or after it, oldest
// first. The newest segment's torn tail, if found, is truncated so the next
// crash cannot land behind an already-invalid frame. fn returning an error
// aborts the replay. After a successful replay the journal accepts appends,
// which go to a fresh segment.
func (j *Journal) Replay(fn func(rec Record) error) (ReplayStats, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ReplayStats{}, ErrClosed
	}
	var stats ReplayStats
	if err := faultinject.Fire(faultinject.SiteJournalReplay); err != nil {
		return stats, fmt.Errorf("journal: replay: %w", err)
	}

	snapSeq, snap, err := j.loadSnapshot()
	if err != nil {
		return stats, err
	}
	if snap != nil {
		stats.SnapshotUsed = true
		stats.Records++
		if err := fn(Record{Snapshot: true, Payload: snap}); err != nil {
			return stats, err
		}
	}

	for i, seq := range j.segs {
		if seq < snapSeq {
			continue // superseded by the snapshot; compaction missed it
		}
		path := filepath.Join(j.dir, segName(seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return stats, fmt.Errorf("journal: %w", err)
		}
		valid, _, scanErr := ScanFrames(data, func(payload []byte) error {
			stats.Records++
			return fn(Record{Payload: append([]byte(nil), payload...)})
		})
		if scanErr != nil {
			return stats, scanErr // fn aborted
		}
		if valid == int64(len(data)) {
			continue // segment fully valid
		}
		if i == len(j.segs)-1 {
			// Torn tail of the newest segment: the crash interrupted the last
			// append. Cut it off so the history ends at a frame boundary.
			stats.TruncatedBytes = int64(len(data)) - valid
			if err := os.Truncate(path, valid); err != nil {
				return stats, fmt.Errorf("journal: truncating torn tail: %w", err)
			}
			continue
		}
		// Invalid frame with newer segments after it: this is not a torn
		// write (later appends succeeded), it is corruption. The records
		// before it are intact and were delivered; the tail is skipped, never
		// trusted.
		stats.CorruptSegments++
		stats.SkippedBytes += int64(len(data)) - valid
	}
	j.replayed = true
	j.replay = stats
	return stats, nil
}

// loadSnapshot returns the newest structurally valid snapshot and its seq.
// A snapshot that fails its checksum is quarantined (renamed aside) and the
// next older one is tried: serving a corrupt snapshot would be worse than
// replaying more history.
func (j *Journal) loadSnapshot() (uint64, []byte, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return 0, nil, fmt.Errorf("journal: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if n, err := fmt.Sscanf(e.Name(), "snap-%016x.snap", &seq); n == 1 && err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] > seqs[b] }) // newest first
	for _, seq := range seqs {
		path := filepath.Join(j.dir, snapName(seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, nil, fmt.Errorf("journal: %w", err)
		}
		var payload []byte
		valid, _, _ := ScanFrames(data, func(p []byte) error {
			if payload == nil {
				payload = append([]byte(nil), p...)
			}
			return nil
		})
		if payload != nil && valid == int64(len(data)) {
			return seq, payload, nil
		}
		// Structurally bad snapshot: move it aside (never delete evidence)
		// and fall back to the previous one.
		_ = os.Rename(path, path+".corrupt")
	}
	return 0, nil, nil
}

// ScanFrames walks data frame by frame, calling fn with each valid payload,
// and stops cleanly at the first invalid frame. It returns the byte offset
// of the end of the last valid frame, the number of valid frames, and fn's
// error if fn aborted the scan. It never panics on arbitrary input — this
// is the decoder FuzzJournalReplay drives.
func ScanFrames(data []byte, fn func(payload []byte) error) (validEnd int64, frames int, err error) {
	off := int64(0)
	for {
		if int64(len(data))-off < frameHeader {
			return off, frames, nil // short header: end of valid history
		}
		length := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length == 0 || length > MaxRecordSize {
			return off, frames, nil // zero-fill or a torn/corrupt length field
		}
		end := off + frameHeader + int64(length)
		if end > int64(len(data)) {
			return off, frames, nil // frame promises more bytes than exist
		}
		payload := data[off+frameHeader : end]
		if crc32.Checksum(payload, castagnoli) != sum {
			return off, frames, nil // corrupted payload
		}
		frames++
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, frames, err
			}
		}
		off = end
	}
}

// AppendFrame appends one framed payload to dst, for callers (and tests)
// that build segment bytes directly.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return append(append(dst, hdr[:]...), payload...)
}

// Append durably adds one record per the fsync policy. The payload is
// framed, written to the active segment (rolling first if the segment is
// full), and — under FsyncAlways — fsynced before Append returns, so a nil
// return means the record survives a crash.
func (j *Journal) Append(payload []byte) error {
	return j.AppendCtx(context.Background(), payload)
}

// AppendCtx is Append carrying a context for tracing: when ctx holds a
// trace, the write is recorded as a "journal.append" span with a nested
// "journal.fsync" span under FsyncAlways — the two disk waits a request can
// spend time in here. The context does not cancel the write: a record is
// either fully appended or not, and abandoning it halfway would tear the
// log on purpose.
func (j *Journal) AppendCtx(ctx context.Context, payload []byte) error {
	ctx, sp := trace.StartSpan(ctx, "journal.append")
	defer sp.End()
	sp.SetAttr("bytes", strconv.Itoa(len(payload)))
	if len(payload) == 0 || len(payload) > MaxRecordSize {
		return fmt.Errorf("journal: record size %d out of range [1, %d]", len(payload), MaxRecordSize)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.closed:
		return ErrClosed
	case !j.replayed:
		return ErrReplayFirst
	}
	if err := j.ensureActiveLocked(); err != nil {
		return err
	}
	frame := AppendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
	if err := faultinject.Fire(faultinject.SiteJournalAppend); err != nil {
		// Injected short write: half a frame lands on disk, exactly the torn
		// tail replay must truncate. The caller sees the append fail.
		n := len(frame) / 2
		_, _ = j.active.Write(frame[:n])
		j.activeSize += int64(n)
		return fmt.Errorf("journal: append: %w", err)
	}
	if _, err := j.active.Write(frame); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.activeSize += int64(len(frame))
	j.appends++
	switch j.opts.Fsync {
	case FsyncAlways:
		_, fsp := trace.StartSpan(ctx, "journal.fsync")
		err := j.syncLocked()
		fsp.End()
		return err
	case FsyncEvery:
		j.dirty = true
	}
	return nil
}

// Sync forces buffered appends to stable storage, regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.active == nil {
		return nil
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if err := faultinject.Fire(faultinject.SiteJournalFsync); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	if err := j.active.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.fsyncs++
	j.dirty = false
	return nil
}

// ensureActiveLocked opens a fresh segment if none is active or the active
// one is full. New segments always get a seq above every existing one, so
// ordering is the file-name ordering.
func (j *Journal) ensureActiveLocked() error {
	if j.active != nil && j.activeSize < j.opts.SegmentBytes {
		return nil
	}
	if j.active != nil {
		if j.opts.Fsync != FsyncNever {
			_ = j.syncLocked()
		}
		_ = j.active.Close()
		j.active = nil
	}
	seq := j.nextSeq
	j.nextSeq++
	f, err := os.OpenFile(filepath.Join(j.dir, segName(seq)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.active, j.activeSeq, j.activeSize = f, seq, 0
	j.segs = append(j.segs, seq)
	return nil
}

// Snapshot writes state as the new replay baseline and compacts: segments
// older than the post-snapshot segment are deleted, as are older snapshots.
// state must reflect every record appended so far (the caller serializes
// its own appends against its snapshot building). The snapshot file is
// written to a temp name, fsynced, and renamed, so a crash mid-snapshot
// leaves the previous baseline intact.
func (j *Journal) Snapshot(state []byte) error {
	if len(state) == 0 || len(state) > MaxRecordSize {
		return fmt.Errorf("journal: snapshot size %d out of range [1, %d]", len(state), MaxRecordSize)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.closed:
		return ErrClosed
	case !j.replayed:
		return ErrReplayFirst
	}
	// Roll so the snapshot's seq covers everything before the new segment.
	if j.active != nil {
		if j.opts.Fsync != FsyncNever {
			_ = j.syncLocked()
		}
		_ = j.active.Close()
		j.active = nil
	}
	seq := j.nextSeq
	j.nextSeq++
	frame := AppendFrame(make([]byte, 0, frameHeader+len(state)), state)
	tmp := filepath.Join(j.dir, snapName(seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if j.opts.Fsync != FsyncNever {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("journal: snapshot: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapName(seq))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	j.snapshots++
	// Compact: everything older than seq is superseded by the snapshot.
	var live []uint64
	for _, s := range j.segs {
		if s < seq {
			_ = os.Remove(filepath.Join(j.dir, segName(s)))
			continue
		}
		live = append(live, s)
	}
	j.segs = live
	if entries, err := os.ReadDir(j.dir); err == nil {
		for _, e := range entries {
			var s uint64
			if n, err := fmt.Sscanf(e.Name(), "snap-%016x.snap", &s); n == 1 && err == nil && s < seq {
				_ = os.Remove(filepath.Join(j.dir, e.Name()))
			}
		}
	}
	return nil
}

// Stats snapshots journal activity.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Appends:   j.appends,
		Fsyncs:    j.fsyncs,
		Segments:  len(j.segs),
		Snapshots: j.snapshots,
		Replay:    j.replay,
	}
}

// Close flushes and closes the journal. Further calls return ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	j.closed = true
	var err error
	if j.active != nil {
		if j.opts.Fsync != FsyncNever {
			err = j.syncLocked()
		}
		if cerr := j.active.Close(); err == nil {
			err = cerr
		}
		j.active = nil
	}
	stop := j.stopFlush
	j.mu.Unlock()
	if stop != nil {
		close(stop)
		<-j.flushDone
	}
	return err
}
