package journal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"merlin/internal/faultinject"
	"merlin/internal/trace"
)

// Store is merlind's disk-backed result store: one file per entry, keyed by
// the service's canonical-hash+tier cache key, each entry carrying its own
// CRC32C so a flipped bit is detected on read and never served. A corrupt
// entry is quarantined — renamed into a quarantine subdirectory, preserving
// the evidence — and reported as ErrCorrupt, which callers treat as a miss
// and recompute.
//
// Writes are temp-file + rename, so a crash mid-write leaves either the old
// entry or none, never a torn one. Every write has a temp file of its own,
// so concurrent writes of one key cannot truncate each other's: the last
// rename wins. The store is safe for concurrent use.
type Store struct {
	dir string

	mu sync.Mutex // serializes multi-step filesystem transitions (quarantine)

	writes      atomic.Uint64
	reads       atomic.Uint64
	hits        atomic.Uint64
	quarantined atomic.Uint64
}

// storeMagic distinguishes store entries from stray files; versioned so a
// future format change cannot be misread as corruption.
var storeMagic = []byte("MRS1")

// ErrNotFound means the key has no entry.
var ErrNotFound = errors.New("journal: store entry not found")

// ErrCorrupt means the entry failed its checksum and has been quarantined.
var ErrCorrupt = errors.New("journal: store entry corrupt (quarantined)")

// quarantineDir is where corrupt entries are moved, under the store root.
const quarantineDir = "quarantine"

// OpenStore opens (creating if needed) the store rooted at dir. It removes
// the temp files of writes that a crash cut short: no entry names them.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("journal: store: %w", err)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		return nil, fmt.Errorf("journal: store: %w", err)
	}
	for _, tmp := range tmps {
		if err := os.Remove(tmp); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("journal: store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// keyFile maps a cache key to a file name: the service's keys are hex
// digests plus a "|tier" suffix; anything outside the conservative safe set
// is mapped to '_' so a key can never escape the store directory.
func keyFile(key string) string {
	var b strings.Builder
	b.Grow(len(key) + 4)
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String() + ".res"
}

// Put durably writes payload under key (temp file + fsync + rename).
// Overwriting an existing entry is atomic: readers see old or new, not a mix.
func (s *Store) Put(key string, payload []byte) error {
	return s.PutCtx(context.Background(), key, payload)
}

// PutCtx is Put carrying a context for tracing: a traced request records
// the store write (temp + fsync + rename) as a "journal.persist" span. Like
// AppendCtx, the context does not cancel the write.
func (s *Store) PutCtx(ctx context.Context, key string, payload []byte) error {
	_, sp := trace.StartSpan(ctx, "journal.persist")
	defer sp.End()
	sp.SetAttr("bytes", strconv.Itoa(len(payload)))
	if len(payload) == 0 || len(payload) > MaxRecordSize {
		return fmt.Errorf("journal: store entry size %d out of range [1, %d]", len(payload), MaxRecordSize)
	}
	name := keyFile(key)
	buf := EncodeEntry(payload)
	f, err := os.CreateTemp(s.dir, name+".*.tmp")
	if err != nil {
		return fmt.Errorf("journal: store put: %w", err)
	}
	tmp := f.Name()
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: store put: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: store put: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: store put: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: store put: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: store put: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// Get reads and checksum-verifies the entry under key. A missing entry is
// ErrNotFound; a corrupt one is quarantined and returned as ErrCorrupt —
// corrupt bytes are never handed to the caller.
func (s *Store) Get(key string) ([]byte, error) {
	s.reads.Add(1)
	name := keyFile(key)
	path := filepath.Join(s.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("journal: store get: %w", err)
	}
	if err := faultinject.Fire(faultinject.SiteStoreRead); err != nil {
		// Injected latent corruption: flip one payload bit, exactly what a
		// decaying disk would hand back. The checksum below must catch it.
		if i := len(storeMagic) + frameHeader; i < len(data) {
			data[i] ^= 0x01
		}
	}
	payload, ok := decodeEntry(data)
	if !ok {
		s.quarantine(name, path)
		return nil, fmt.Errorf("%w: key %s", ErrCorrupt, key)
	}
	s.hits.Add(1)
	return payload, nil
}

// EncodeEntry serialises payload as one self-checking MRS1 entry. This is
// also the byte format replica pushes and peer-warm fetches carry on the
// wire, so a bit flipped in transit is caught by the same checksum as one
// flipped on disk.
func EncodeEntry(payload []byte) []byte {
	buf := make([]byte, 0, len(storeMagic)+frameHeader+len(payload))
	buf = append(buf, storeMagic...)
	return AppendFrame(buf, payload)
}

// DecodeEntry validates an MRS1 entry and returns its payload; ok is false
// on any framing or checksum violation. Receivers of replicated entries
// must call this before storing or serving anything.
func DecodeEntry(data []byte) ([]byte, bool) { return decodeEntry(data) }

// WriteCount is the number of successful Puts since open — the store
// high-water mark a backend gossips to the fleet (no directory scan).
func (s *Store) WriteCount() uint64 { return s.writes.Load() }

// decodeEntry validates magic + frame and returns the payload.
func decodeEntry(data []byte) ([]byte, bool) {
	if len(data) < len(storeMagic)+frameHeader {
		return nil, false
	}
	if string(data[:len(storeMagic)]) != string(storeMagic) {
		return nil, false
	}
	body := data[len(storeMagic):]
	length := binary.LittleEndian.Uint32(body[0:4])
	sum := binary.LittleEndian.Uint32(body[4:8])
	if length == 0 || int64(length) > MaxRecordSize || int64(len(body)) != frameHeader+int64(length) {
		return nil, false
	}
	payload := body[frameHeader:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, false
	}
	return payload, true
}

// quarantine moves a corrupt entry aside so it is recomputed, not served,
// and the bad bytes stay inspectable.
func (s *Store) quarantine(name, path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(path, filepath.Join(s.dir, quarantineDir, name)); err != nil && !os.IsNotExist(err) {
		// Rename failed (exotic filesystem state): deleting still guarantees
		// the corrupt bytes are never served again.
		_ = os.Remove(path)
	}
	s.quarantined.Add(1)
}

// Delete removes the entry under key, if present.
func (s *Store) Delete(key string) error {
	err := os.Remove(filepath.Join(s.dir, keyFile(key)))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: store delete: %w", err)
	}
	return nil
}

// StoreStats is a point-in-time summary of store activity and contents.
type StoreStats struct {
	// Entries is the current live entry count (a directory scan).
	Entries int
	// Quarantined counts entries quarantined since open; Reads/Hits/Writes
	// count operations since open.
	Quarantined uint64
	Reads       uint64
	Hits        uint64
	Writes      uint64
}

// Stats scans the store directory and returns current stats.
func (s *Store) Stats() StoreStats {
	st := StoreStats{
		Quarantined: s.quarantined.Load(),
		Reads:       s.reads.Load(),
		Hits:        s.hits.Load(),
		Writes:      s.writes.Load(),
	}
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".res") {
				st.Entries++
			}
		}
	}
	return st
}
