// Package store is the durability layer under the service: a
// dependency-free, content-addressed on-disk store that persists dataset
// generations as append chains — one blob per content (the seed CSV, then
// each batch's canonical CSV rendering), named by its SHA-256 hex and
// linked through the same Version/Parent hash chain the registry
// maintains in memory — plus, optionally, serialized audit results keyed
// by the service's (dataset hash | ranker | params) cache-key scheme.
//
// Layout under the root directory:
//
//	blobs/<hh>/<hash>  content blobs, <hh> the first two hex digits
//	MANIFEST           append-only JSON-lines WAL, fsync'd per record
//
// Every mutation follows the same two-step discipline: the blob is made
// durable first (written to a temp file, fsync'd, renamed into its
// content-hash name, directory fsync'd), and only then is the manifest
// record appended and fsync'd. A crash between the two leaves an orphan
// blob, which recovery ignores (and a later write of the same content
// silently adopts — content addressing makes the retry idempotent). A
// crash mid-record leaves a torn manifest tail, which recovery truncates.
// A record whose blob is missing or the wrong size — possible only if the
// filesystem reordered the rename past the manifest append — is dropped,
// and because every append names its parent, dropping one generation
// consistently drops everything chained after it: reboot always lands on
// a prefix of each dataset's generation chain.
//
// All disk access goes through a fault.FS seam (OpenFS): production uses
// the fault.OS passthrough, chaos tests substitute a fault.FaultFS to
// inject errors, latency, and torn writes. Failures caused by the
// filesystem — as opposed to logical rejections like a parent mismatch —
// are wrapped in IOError so the service's retry and circuit-breaker
// policies can tell the two apart.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"rankfair/internal/fault"
)

const (
	manifestName = "MANIFEST"
	blobDirName  = "blobs"
)

// Generation is one link of a dataset's persisted append chain. Hash is
// the content hash of the generation's full CSV (what the registry calls
// DatasetInfo.Hash); Blob names the content blob backing the *step* to
// this generation — the whole seed CSV for the first link, the appended
// batch's CSV rendering for every later one — so replaying the chain
// reads exactly the bytes each append carried, never the concatenation.
type Generation struct {
	// Hash is the generation's full-content hash (chain identity).
	Hash string `json:"hash"`
	// Parent is the previous generation's Hash; empty for the seed.
	Parent string `json:"parent,omitempty"`
	// Blob is the content-hash name of the backing blob.
	Blob string `json:"blob"`
	// Size is the blob's byte length, recorded so recovery can reject a
	// torn blob with one stat instead of a full read.
	Size int64 `json:"size"`
	// Meta is the owner's opaque record (the service persists the
	// generation's DatasetInfo plus the seed's decode options here).
	Meta json.RawMessage `json:"meta,omitempty"`
}

// walRecord is one manifest line.
type walRecord struct {
	// Op is "seed", "append", "evict" or "cache".
	Op      string          `json:"op"`
	Dataset string          `json:"dataset,omitempty"`
	Hash    string          `json:"hash,omitempty"`
	Parent  string          `json:"parent,omitempty"`
	Blob    string          `json:"blob,omitempty"`
	Size    int64           `json:"size,omitempty"`
	Meta    json.RawMessage `json:"meta,omitempty"`
	// Key is the result-cache key for "cache" records.
	Key string `json:"key,omitempty"`
}

// Stats is a point-in-time snapshot of the store's I/O counters.
type Stats struct {
	// BlobWrites and BlobWriteBytes count blobs made durable (deduplicated
	// rewrites of existing content are not counted).
	BlobWrites     int64
	BlobWriteBytes int64
	// BlobReads and BlobReadBytes count verified blob reads.
	BlobReads     int64
	BlobReadBytes int64
	// RecoveredRecords counts manifest records applied at Open;
	// DroppedRecords counts records Open discarded (torn tail, missing or
	// torn blob, broken parent chain).
	RecoveredRecords int64
	DroppedRecords   int64
}

// IOError marks a store failure caused by the underlying filesystem —
// as opposed to a logical rejection (unknown dataset, parent mismatch,
// duplicate chain). The service's resilience policy keys on it: only
// IOErrors count against the store circuit breaker, and only the
// transient ones (per an Unwrap chain exposing Transient() bool) are
// retried.
type IOError struct {
	// Op names the failing operation ("writing blob", "syncing manifest").
	Op  string
	Err error
}

func (e *IOError) Error() string { return "store: " + e.Op + ": " + e.Err.Error() }
func (e *IOError) Unwrap() error { return e.Err }

func ioErr(op string, err error) error { return &IOError{Op: op, Err: err} }

// Store is a content-addressed on-disk store. All methods are safe for
// concurrent use; chain mutations serialize on one mutex, so the caller's
// own per-dataset append ordering is preserved as WAL order.
type Store struct {
	dir string
	fs  fault.FS

	mu     sync.Mutex
	wal    fault.File
	chains map[string][]Generation
	cache  map[string]cacheRef

	// walOff is the manifest's last known-good length: the byte offset
	// after the last record that was fully written and fsync'd. A failed
	// or short record write can leave torn bytes past it; those are
	// truncated away immediately (or, if even the truncate fails, the
	// store is marked walDirty and every later append re-attempts the
	// heal first) so a later record never lands after a poisoned tail —
	// recovery drops everything after the first unparseable line, and an
	// acked record must never be in that shadow.
	walOff   int64
	walDirty bool

	blobWrites, blobWriteBytes atomic.Int64
	blobReads, blobReadBytes   atomic.Int64
	recovered, dropped         atomic.Int64
}

type cacheRef struct {
	blob string
	size int64
}

// Open opens (creating if needed) the store rooted at dir and recovers
// the surviving catalog from the manifest: a torn final record is
// truncated away, records whose blob is missing or the wrong size are
// dropped, and an append whose parent is not the current chain head is
// dropped — which transitively drops everything chained after a bad
// generation, so each dataset recovers to a consistent prefix.
func Open(dir string) (*Store, error) { return OpenFS(dir, fault.OS{}) }

// OpenFS is Open with an explicit filesystem; fault-injection harnesses
// pass a fault.FaultFS here.
func OpenFS(dir string, fsys fault.FS) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if fsys == nil {
		fsys = fault.OS{}
	}
	if err := fsys.MkdirAll(filepath.Join(dir, blobDirName), 0o755); err != nil {
		return nil, ioErr("creating layout", err)
	}
	s := &Store{
		dir:    dir,
		fs:     fsys,
		chains: make(map[string][]Generation),
		cache:  make(map[string]cacheRef),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	wal, err := fsys.OpenFile(s.manifestPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, ioErr("opening manifest", err)
	}
	s.wal = wal
	if st, err := fsys.Stat(s.manifestPath()); err == nil {
		s.walOff = st.Size()
	} else {
		wal.Close()
		return nil, ioErr("sizing manifest", err)
	}
	return s, nil
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, manifestName) }

func (s *Store) blobPath(hash string) string {
	return filepath.Join(s.dir, blobDirName, hash[:2], hash)
}

// HashBytes returns the content-hash name the store assigns to raw bytes.
func HashBytes(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// recover replays the manifest into the in-memory catalog.
func (s *Store) recover() error {
	raw, err := s.fs.ReadFile(s.manifestPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return ioErr("reading manifest", err)
	}
	// Walk line by line, tracking the byte offset of the first record that
	// fails to parse: everything from there on is a torn or corrupt tail
	// and is truncated away so the reopened WAL appends cleanly.
	valid := 0
	for off := 0; off < len(raw); {
		nl := -1
		for i := off; i < len(raw); i++ {
			if raw[i] == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 { // no terminator: torn tail
			s.dropped.Add(1)
			break
		}
		var rec walRecord
		if err := json.Unmarshal(raw[off:nl], &rec); err != nil {
			// A record that does not parse poisons everything after it:
			// order past this point is untrustworthy, so recovery stops
			// here (conservative consistent prefix).
			s.dropped.Add(1)
			break
		}
		s.applyRecovered(rec)
		valid = nl + 1
		off = nl + 1
	}
	if valid < len(raw) {
		if err := s.fs.Truncate(s.manifestPath(), int64(valid)); err != nil {
			return ioErr("truncating torn manifest tail", err)
		}
	}
	s.pruneMissingBlobs()
	return nil
}

// applyRecovered folds one manifest record into the catalog.
func (s *Store) applyRecovered(rec walRecord) {
	switch rec.Op {
	case "seed":
		// A seed for an existing chain resets it (re-upload after a
		// tombstone); chain state between the two is gone by definition.
		s.chains[rec.Dataset] = []Generation{{Hash: rec.Hash, Blob: rec.Blob, Size: rec.Size, Meta: rec.Meta}}
		s.recovered.Add(1)
	case "append":
		gens := s.chains[rec.Dataset]
		if len(gens) == 0 || gens[len(gens)-1].Hash != rec.Parent {
			s.dropped.Add(1) // parent not at head: chain already cut here
			return
		}
		s.chains[rec.Dataset] = append(gens, Generation{
			Hash: rec.Hash, Parent: rec.Parent, Blob: rec.Blob, Size: rec.Size, Meta: rec.Meta,
		})
		s.recovered.Add(1)
	case "evict":
		delete(s.chains, rec.Dataset)
		s.recovered.Add(1)
	case "cache":
		s.cache[rec.Key] = cacheRef{blob: rec.Blob, size: rec.Size}
		s.recovered.Add(1)
	default:
		s.dropped.Add(1)
	}
}

// pruneMissingBlobs cuts every chain at its first generation whose blob
// is absent or the wrong size (a torn blob from a crash mid-write, or a
// manifest record that outran its blob). Appends past the cut were
// already chained on the dropped hash, so the cut is a consistent prefix.
func (s *Store) pruneMissingBlobs() {
	for id, gens := range s.chains {
		keep := len(gens)
		for i, g := range gens {
			st, err := s.fs.Stat(s.blobPath(g.Blob))
			if err != nil || st.Size() != g.Size {
				keep = i
				break
			}
		}
		switch {
		case keep == 0:
			delete(s.chains, id)
			s.dropped.Add(int64(len(gens)))
		case keep < len(gens):
			s.chains[id] = gens[:keep:keep]
			s.dropped.Add(int64(len(gens) - keep))
		}
	}
	for key, ref := range s.cache {
		st, err := s.fs.Stat(s.blobPath(ref.blob))
		if err != nil || st.Size() != ref.size {
			delete(s.cache, key)
			s.dropped.Add(1)
		}
	}
}

// writeBlob makes raw durable under its content-hash name and returns
// that name. Existing content is adopted without a rewrite (a previous
// crash's orphan, or plain deduplication — same bytes, same name) once it
// is verified to be raw; a same-size blob damaged in place is rewritten,
// or every restart would drop it and recompute it again.
func (s *Store) writeBlob(raw []byte) (string, error) {
	hash := HashBytes(raw)
	path := s.blobPath(hash)
	if st, err := s.fs.Stat(path); err == nil && st.Size() == int64(len(raw)) {
		if old, err := s.fs.ReadFile(path); err == nil && bytes.Equal(old, raw) {
			return hash, nil
		}
	}
	dir := filepath.Dir(path)
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return "", ioErr("blob dir", err)
	}
	tmp, err := s.fs.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return "", ioErr("blob temp", err)
	}
	defer s.fs.Remove(tmp.Name()) // no-op after the rename succeeds
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return "", ioErr("writing blob", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", ioErr("syncing blob", err)
	}
	if err := tmp.Close(); err != nil {
		return "", ioErr("closing blob", err)
	}
	if err := s.fs.Rename(tmp.Name(), path); err != nil {
		return "", ioErr("publishing blob", err)
	}
	if err := syncDir(s.fs, dir); err != nil {
		return "", err
	}
	s.blobWrites.Add(1)
	s.blobWriteBytes.Add(int64(len(raw)))
	return hash, nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(fsys fault.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return ioErr("opening dir for sync", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return ioErr("syncing dir", err)
	}
	return nil
}

// appendRecordLocked appends one fsync'd manifest line; callers hold s.mu.
func (s *Store) appendRecordLocked(rec walRecord) error {
	if s.walDirty {
		if err := s.healWALLocked(); err != nil {
			return ioErr("healing manifest tail", err)
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding record: %w", err)
	}
	line = append(line, '\n')
	n, werr := s.wal.Write(line)
	if werr == nil && n == len(line) {
		if serr := s.wal.Sync(); serr != nil {
			// Durability unknown: roll the record back out of the tail so
			// memory and disk agree it never happened (an unacked record
			// surviving on disk would make the next acked append look
			// parent-broken on recovery).
			s.rollbackWALLocked()
			return ioErr("syncing manifest", serr)
		}
		s.walOff += int64(len(line))
		return nil
	}
	if werr == nil {
		werr = io.ErrShortWrite
	}
	// The failed write may have left torn bytes after walOff; truncate
	// them away now rather than at next boot, because a *later* record
	// appended after torn bytes would be dropped by recovery along with
	// the tear — an acked-write loss, not just a lost error response.
	s.rollbackWALLocked()
	return ioErr("appending manifest", werr)
}

// rollbackWALLocked restores the manifest to its last known-good length.
// If the truncate itself fails the store is marked dirty and every
// subsequent append re-attempts the heal before writing.
func (s *Store) rollbackWALLocked() {
	if err := s.wal.Truncate(s.walOff); err != nil {
		s.walDirty = true
		return
	}
	s.walDirty = false
}

func (s *Store) healWALLocked() error {
	if err := s.wal.Truncate(s.walOff); err != nil {
		return err
	}
	s.walDirty = false
	return nil
}

// PutSeed persists a dataset's seed generation: raw is the seed CSV, hash
// its content hash (which is also the generation hash), meta the owner's
// record. Re-persisting an identical seed is a durable no-op; a seed for
// a live chain with a different head is rejected — the caller must
// Tombstone first.
func (s *Store) PutSeed(dataset, hash string, raw []byte, meta json.RawMessage) error {
	blob, err := s.writeBlob(raw)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if gens, ok := s.chains[dataset]; ok {
		if gens[0].Hash == hash {
			return nil // already durable
		}
		return fmt.Errorf("store: dataset %s already has a different chain", dataset)
	}
	rec := walRecord{Op: "seed", Dataset: dataset, Hash: hash, Blob: blob, Size: int64(len(raw)), Meta: meta}
	if err := s.appendRecordLocked(rec); err != nil {
		return err
	}
	s.chains[dataset] = []Generation{{Hash: hash, Blob: blob, Size: rec.Size, Meta: meta}}
	return nil
}

// PutAppend persists one append step: batchRaw is the batch's canonical
// CSV rendering (the step blob), hash the new generation's full-content
// hash, parent the current head's. A parent that is not the durable head
// is rejected, which keeps disk exactly one consistent chain per dataset
// no matter how the in-memory side crashes or races eviction.
func (s *Store) PutAppend(dataset, hash, parent string, batchRaw []byte, meta json.RawMessage) error {
	blob, err := s.writeBlob(batchRaw)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	gens, ok := s.chains[dataset]
	if !ok {
		return fmt.Errorf("store: dataset %s has no chain", dataset)
	}
	if head := gens[len(gens)-1].Hash; head != parent {
		if head == hash {
			return nil // already durable (retry after a lost response)
		}
		return fmt.Errorf("store: append parent %.12s is not the chain head %.12s", parent, head)
	}
	rec := walRecord{Op: "append", Dataset: dataset, Hash: hash, Parent: parent, Blob: blob, Size: int64(len(batchRaw)), Meta: meta}
	if err := s.appendRecordLocked(rec); err != nil {
		return err
	}
	s.chains[dataset] = append(gens, Generation{Hash: hash, Parent: parent, Blob: blob, Size: rec.Size, Meta: meta})
	return nil
}

// Tombstone durably removes a dataset's chain; it reports whether a chain
// was present. The blobs stay on disk (content-addressed data may be
// shared and is reclaimed by an offline sweep, not the hot path).
func (s *Store) Tombstone(dataset string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.chains[dataset]; !ok {
		return false, nil
	}
	if err := s.appendRecordLocked(walRecord{Op: "evict", Dataset: dataset}); err != nil {
		return false, err
	}
	delete(s.chains, dataset)
	return true, nil
}

// Truncate cuts a dataset's in-memory chain back to head (exclusive of
// everything after it), reporting whether anything was cut. The service
// calls it when replay hits a blob whose content no longer matches its
// name — the stat-level checks at Open cannot see same-size corruption —
// so the catalog keeps agreeing with what is actually servable. No WAL
// record is needed: the bad blob fails the same way on every boot.
func (s *Store) Truncate(dataset, head string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	gens, ok := s.chains[dataset]
	if !ok {
		return false
	}
	for i, g := range gens {
		if g.Hash == head {
			if i == len(gens)-1 {
				return false
			}
			s.chains[dataset] = gens[: i+1 : i+1]
			return true
		}
	}
	return false
}

// Datasets returns the IDs of every persisted chain, sorted.
func (s *Store) Datasets() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.chains))
	for id := range s.chains {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Chain returns a copy of one dataset's generation chain, seed first.
func (s *Store) Chain(dataset string) ([]Generation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gens, ok := s.chains[dataset]
	if !ok {
		return nil, false
	}
	out := make([]Generation, len(gens))
	copy(out, gens)
	return out, true
}

// Blob reads a blob and verifies its content against its name, so a
// corrupt blob can never be replayed into a dataset silently.
func (s *Store) Blob(hash string) ([]byte, error) {
	raw, err := s.fs.ReadFile(s.blobPath(hash))
	if err != nil {
		return nil, ioErr(fmt.Sprintf("reading blob %.12s", hash), err)
	}
	if got := HashBytes(raw); got != hash {
		return nil, fmt.Errorf("store: blob %.12s content hashes to %.12s (torn or corrupt)", hash, got)
	}
	s.blobReads.Add(1)
	s.blobReadBytes.Add(int64(len(raw)))
	return raw, nil
}

// PutCache persists one serialized result keyed by the owner's cache key.
// The key scheme embeds the dataset content hash, so entries never go
// stale — a later write under the same key simply re-points it.
func (s *Store) PutCache(key string, val []byte) error {
	blob, err := s.writeBlob(val)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ref, ok := s.cache[key]; ok && ref.blob == blob {
		return nil
	}
	rec := walRecord{Op: "cache", Key: key, Blob: blob, Size: int64(len(val))}
	if err := s.appendRecordLocked(rec); err != nil {
		return err
	}
	s.cache[key] = cacheRef{blob: blob, size: rec.Size}
	return nil
}

// CacheKeys returns every persisted result key, sorted.
func (s *Store) CacheKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.cache))
	for k := range s.cache {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CacheValue reads one persisted result's bytes.
func (s *Store) CacheValue(key string) ([]byte, error) {
	s.mu.Lock()
	ref, ok := s.cache[key]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("store: no cache entry %q", key)
	}
	return s.Blob(ref.blob)
}

// Stats snapshots the I/O counters.
func (s *Store) Stats() Stats {
	return Stats{
		BlobWrites:       s.blobWrites.Load(),
		BlobWriteBytes:   s.blobWriteBytes.Load(),
		BlobReads:        s.blobReads.Load(),
		BlobReadBytes:    s.blobReadBytes.Load(),
		RecoveredRecords: s.recovered.Load(),
		DroppedRecords:   s.dropped.Load(),
	}
}

// Len returns the number of persisted chains.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.chains)
}

// Close releases the manifest handle; the store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
