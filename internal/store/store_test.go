package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seedChain populates a store with one dataset: a seed and n append
// generations, returning the full raw content per generation.
func seedChain(t *testing.T, s *Store, id string, n int) (hashes []string, raws [][]byte) {
	t.Helper()
	raw := []byte("sex,score\nM,10\nF,9\n")
	hash := HashBytes(raw)
	meta, _ := json.Marshal(map[string]int{"version": 1})
	if err := s.PutSeed(id, hash, raw, meta); err != nil {
		t.Fatalf("PutSeed: %v", err)
	}
	hashes = append(hashes, hash)
	raws = append(raws, raw)
	for i := 0; i < n; i++ {
		batch := []byte(fmt.Sprintf("M,%d\nF,%d\n", 8-2*i, 7-2*i))
		next := append(append([]byte{}, raw...), batch...)
		nextHash := HashBytes(next)
		meta, _ := json.Marshal(map[string]int{"version": i + 2})
		if err := s.PutAppend(id, nextHash, hash, batch, meta); err != nil {
			t.Fatalf("PutAppend %d: %v", i, err)
		}
		raw, hash = next, nextHash
		hashes = append(hashes, hash)
		raws = append(raws, raw)
	}
	return hashes, raws
}

// replayRaw reconstructs a generation's full content from the chain.
func replayRaw(t *testing.T, s *Store, gens []Generation) []byte {
	t.Helper()
	var raw []byte
	for _, g := range gens {
		blob, err := s.Blob(g.Blob)
		if err != nil {
			t.Fatalf("Blob(%s): %v", g.Blob[:12], err)
		}
		raw = append(raw, blob...)
	}
	return raw
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hashes, raws := seedChain(t, s, "ds-a", 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	gens, ok := s2.Chain("ds-a")
	if !ok || len(gens) != 4 {
		t.Fatalf("recovered chain: ok=%v len=%d, want 4", ok, len(gens))
	}
	for i, g := range gens {
		if g.Hash != hashes[i] {
			t.Fatalf("gen %d hash = %.12s, want %.12s", i, g.Hash, hashes[i])
		}
	}
	if got := replayRaw(t, s2, gens); !bytes.Equal(got, raws[len(raws)-1]) {
		t.Fatalf("replayed content diverges from final generation:\n%s\nvs\n%s", got, raws[len(raws)-1])
	}
	// The chain stays appendable after recovery.
	head := hashes[len(hashes)-1]
	batch := []byte("M,0\nF,-1\n")
	nextHash := HashBytes(append(append([]byte{}, raws[len(raws)-1]...), batch...))
	if err := s2.PutAppend("ds-a", nextHash, head, batch, nil); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

func TestStoreSeedIdempotentAndConflict(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	raw := []byte("a,b\n1,2\n")
	if err := s.PutSeed("ds-x", HashBytes(raw), raw, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSeed("ds-x", HashBytes(raw), raw, nil); err != nil {
		t.Fatalf("identical re-seed should be a durable no-op, got %v", err)
	}
	other := []byte("a,b\n3,4\n")
	if err := s.PutSeed("ds-x", HashBytes(other), other, nil); err == nil {
		t.Fatal("conflicting seed for a live chain must be rejected")
	}
}

func TestStoreAppendValidation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hashes, raws := seedChain(t, s, "ds-a", 1)
	// Wrong parent (stale head) is rejected.
	if err := s.PutAppend("ds-a", "deadbeef", hashes[0], []byte("x\n"), nil); err == nil {
		t.Fatal("append on a stale parent must be rejected")
	}
	// Re-persisting the durable head is a no-op (idempotent retry).
	batchAgain := raws[1][len(raws[0]):]
	if err := s.PutAppend("ds-a", hashes[1], hashes[0], batchAgain, nil); err != nil {
		t.Fatalf("idempotent head retry: %v", err)
	}
	// Unknown dataset.
	if err := s.PutAppend("ds-none", "h", "p", []byte("x\n"), nil); err == nil {
		t.Fatal("append to an unknown dataset must be rejected")
	}
}

func TestStoreTombstone(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedChain(t, s, "ds-a", 2)
	if ok, err := s.Tombstone("ds-a"); err != nil || !ok {
		t.Fatalf("Tombstone: ok=%v err=%v", ok, err)
	}
	if ok, err := s.Tombstone("ds-a"); err != nil || ok {
		t.Fatalf("second Tombstone: ok=%v err=%v, want absent", ok, err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Chain("ds-a"); ok {
		t.Fatal("tombstoned chain resurrected on reboot")
	}
	// A fresh seed after a tombstone starts a new chain.
	raw := []byte("a\n1\n")
	if err := s2.PutSeed("ds-a", HashBytes(raw), raw, nil); err != nil {
		t.Fatalf("re-seed after tombstone: %v", err)
	}
}

func TestStoreCacheEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutCache("hash|cols:5:score:true;|m", []byte(`{"measure":"prop"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCache("hash|cols:5:score:true;|m", []byte(`{"measure":"prop"}`)); err != nil {
		t.Fatalf("idempotent cache put: %v", err)
	}
	if err := s.PutCache("other", []byte(`{"measure":"global"}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	keys := s2.CacheKeys()
	if len(keys) != 2 {
		t.Fatalf("recovered %d cache keys, want 2: %v", len(keys), keys)
	}
	val, err := s2.CacheValue("hash|cols:5:score:true;|m")
	if err != nil || string(val) != `{"measure":"prop"}` {
		t.Fatalf("CacheValue = %q, %v", val, err)
	}
}

// --- crash-boundary recovery -------------------------------------------

// TestRecoverTornManifestTail cuts the manifest mid-record (crash while
// appending the WAL line): reboot truncates the torn tail and keeps the
// consistent prefix, and the reopened WAL appends cleanly after it.
func TestRecoverTornManifestTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hashes, raws := seedChain(t, s, "ds-a", 2)
	s.Close()

	manifest := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the last record's JSON.
	lines := bytes.SplitAfter(raw, []byte("\n"))
	last := lines[len(lines)-2] // final element is the empty split tail
	torn := raw[:len(raw)-len(last)+len(last)/2]
	if err := os.WriteFile(manifest, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	gens, ok := s2.Chain("ds-a")
	if !ok || len(gens) != 2 {
		t.Fatalf("after torn tail: ok=%v len=%d, want the 2-generation prefix", ok, len(gens))
	}
	if got := replayRaw(t, s2, gens); !bytes.Equal(got, raws[1]) {
		t.Fatal("recovered prefix content diverges")
	}
	// Appending on the recovered head works (the file was truncated, so
	// the new record does not collide with torn bytes).
	batch := []byte("Q,1\n")
	next := HashBytes(append(append([]byte{}, raws[1]...), batch...))
	if err := s2.PutAppend("ds-a", next, hashes[1], batch, nil); err != nil {
		t.Fatalf("append after tail truncation: %v", err)
	}
}

// TestRecoverManifestAheadOfBlob deletes a batch blob (crash window where
// the WAL record became durable but the blob rename did not): reboot
// drops that generation and everything chained after it.
func TestRecoverManifestAheadOfBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, raws := seedChain(t, s, "ds-a", 3)
	gens, _ := s.Chain("ds-a")
	s.Close()

	// Remove the v3 step blob: v3 AND v4 must vanish, v1..v2 survive.
	if err := os.Remove(filepath.Join(dir, blobDirName, gens[2].Blob[:2], gens[2].Blob)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Chain("ds-a")
	if !ok || len(got) != 2 {
		t.Fatalf("after missing blob: ok=%v len=%d, want the 2-generation prefix", ok, len(got))
	}
	if raw := replayRaw(t, s2, got); !bytes.Equal(raw, raws[1]) {
		t.Fatal("recovered prefix content diverges")
	}
	if st := s2.Stats(); st.DroppedRecords < 2 {
		t.Fatalf("DroppedRecords = %d, want >= 2 (the cut generation and its descendant)", st.DroppedRecords)
	}
}

// TestRecoverTornBlob truncates a batch blob to half its bytes (crash
// mid-blob-write that still renamed, or torn page): the size check at
// Open cuts the chain at the consistent prefix.
func TestRecoverTornBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, raws := seedChain(t, s, "ds-a", 2)
	gens, _ := s.Chain("ds-a")
	s.Close()

	path := filepath.Join(dir, blobDirName, gens[1].Blob[:2], gens[1].Blob)
	if err := os.Truncate(path, gens[1].Size/2); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Chain("ds-a")
	if !ok || len(got) != 1 {
		t.Fatalf("after torn blob: ok=%v len=%d, want the seed only", ok, len(got))
	}
	if raw := replayRaw(t, s2, got); !bytes.Equal(raw, raws[0]) {
		t.Fatal("recovered seed content diverges")
	}
}

// TestRecoverCorruptSameSizeBlob flips a byte without changing the size:
// Open cannot see it (stat-level check), but the read path's content
// verification refuses the blob, and Truncate lets the caller realign the
// catalog to what is servable.
func TestRecoverCorruptSameSizeBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hashes, _ := seedChain(t, s, "ds-a", 2)
	gens, _ := s.Chain("ds-a")
	s.Close()

	path := filepath.Join(dir, blobDirName, gens[2].Blob[:2], gens[2].Blob)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _ := s2.Chain("ds-a")
	if len(got) != 3 {
		t.Fatalf("same-size corruption should pass the stat check, got chain of %d", len(got))
	}
	if _, err := s2.Blob(gens[2].Blob); err == nil {
		t.Fatal("Blob must reject content that does not hash to its name")
	}
	if !s2.Truncate("ds-a", hashes[1]) {
		t.Fatal("Truncate should cut the unreadable head")
	}
	if got, _ := s2.Chain("ds-a"); len(got) != 2 {
		t.Fatalf("after Truncate: chain of %d, want 2", len(got))
	}
}

// TestRecoverBlobAheadOfManifest simulates a crash after the blob rename
// but before the WAL append: the orphan blob is ignored at reboot, and a
// retry of the same append adopts it without rewriting.
func TestRecoverBlobAheadOfManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hashes, raws := seedChain(t, s, "ds-a", 1)
	// Write the orphan by hand, exactly as writeBlob would have left it.
	batch := []byte("Z,42\n")
	orphan := HashBytes(batch)
	dirp := filepath.Join(dir, blobDirName, orphan[:2])
	if err := os.MkdirAll(dirp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirp, orphan), batch, 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	gens, _ := s2.Chain("ds-a")
	if len(gens) != 2 {
		t.Fatalf("orphan blob must not surface as a generation: chain of %d, want 2", len(gens))
	}
	// The retried append adopts the orphan: no new blob write happens.
	before := s2.Stats().BlobWrites
	next := HashBytes(append(append([]byte{}, raws[1]...), batch...))
	if err := s2.PutAppend("ds-a", next, hashes[1], batch, nil); err != nil {
		t.Fatalf("retried append: %v", err)
	}
	if after := s2.Stats().BlobWrites; after != before {
		t.Fatalf("retry rewrote the orphan blob: writes %d -> %d", before, after)
	}
}

// TestRewriteCorruptSameSizeBlob damages a cache blob in place without
// changing its size: putting the same value again must rewrite the blob
// rather than adopt it by size, and a further put adopts the repaired blob
// without writing.
func TestRewriteCorruptSameSizeBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := []byte(`{"measure":"prop"}`)
	if err := s.PutCache("key", val); err != nil {
		t.Fatal(err)
	}
	name := HashBytes(val)
	path := filepath.Join(dir, blobDirName, name[:2], name)
	bad := append([]byte(nil), val...)
	bad[1] ^= 0x01
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CacheValue("key"); err == nil {
		t.Fatal("CacheValue served a corrupt blob")
	}

	before := s.Stats().BlobWrites
	if err := s.PutCache("key", val); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().BlobWrites - before; got != 1 {
		t.Fatalf("put over a corrupt same-size blob wrote %d blobs, want 1", got)
	}
	if got, err := s.CacheValue("key"); err != nil || !bytes.Equal(got, val) {
		t.Fatalf("after rewrite: CacheValue = %q, %v; want %q", got, err, val)
	}
	before = s.Stats().BlobWrites
	if err := s.PutCache("key", val); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().BlobWrites - before; got != 0 {
		t.Fatalf("put over an intact blob wrote %d blobs, want 0", got)
	}
}

// TestRecoverCorruptMidManifest poisons a record in the middle of the
// manifest: recovery conservatively stops at the corruption, keeping the
// prefix and truncating the rest.
func TestRecoverCorruptMidManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedChain(t, s, "ds-a", 3)
	s.Close()

	manifest := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	lines[1] = "{not json}\n" // poison the first append record
	if err := os.WriteFile(manifest, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	gens, ok := s2.Chain("ds-a")
	if !ok || len(gens) != 1 {
		t.Fatalf("after mid-manifest corruption: ok=%v len=%d, want the seed only", ok, len(gens))
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") must fail")
	}
}
