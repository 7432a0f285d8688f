package pager

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.manifest")
	bounds := [][]byte{[]byte(".b"), []byte(".b.a")}
	m, err := CreateManifestFile(path, bounds, []uint64{1, 1, 1})
	if err != nil {
		t.Fatalf("CreateManifestFile: %v", err)
	}
	if m.Shards() != 3 || m.Gen() != 1 {
		t.Fatalf("fresh manifest: shards=%d gen=%d, want 3/1", m.Shards(), m.Gen())
	}
	if err := m.Commit([]uint64{2, 1, 3}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := m.Commit([]uint64{2, 4, 3}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2, err := OpenManifestFile(path)
	if err != nil {
		t.Fatalf("OpenManifestFile: %v", err)
	}
	defer m2.Close()
	if m2.Gen() != 3 {
		t.Errorf("reopened gen = %d, want 3", m2.Gen())
	}
	if got := m2.Gens(); !reflect.DeepEqual(got, []uint64{2, 4, 3}) {
		t.Errorf("reopened gens = %v, want [2 4 3]", got)
	}
	if got := m2.Bounds(); !reflect.DeepEqual(got, bounds) {
		t.Errorf("reopened bounds = %q, want %q", got, bounds)
	}
}

func TestManifestSingleShardNoBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "one.manifest")
	m, err := CreateManifestFile(path, nil, []uint64{7})
	if err != nil {
		t.Fatalf("CreateManifestFile: %v", err)
	}
	m.Close()
	m2, err := OpenManifestFile(path)
	if err != nil {
		t.Fatalf("OpenManifestFile: %v", err)
	}
	defer m2.Close()
	if m2.Shards() != 1 || len(m2.Bounds()) != 0 || m2.Gens()[0] != 7 {
		t.Errorf("got shards=%d bounds=%d gens=%v", m2.Shards(), len(m2.Bounds()), m2.Gens())
	}
}

// The checkpoint LSN rides each commit slot: CommitWAL advances it, plain
// Commit preserves it, and it survives reopen.
func TestManifestWALLSNRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.manifest")
	m, err := CreateManifestFile(path, [][]byte{[]byte(".w")}, []uint64{1, 1})
	if err != nil {
		t.Fatalf("CreateManifestFile: %v", err)
	}
	if got := m.WALLSN(); got != 0 {
		t.Fatalf("fresh WALLSN = %d, want 0", got)
	}
	if err := m.CommitWAL([]uint64{2, 2}, 37); err != nil {
		t.Fatalf("CommitWAL: %v", err)
	}
	if err := m.Commit([]uint64{3, 2}); err != nil { // must preserve the LSN
		t.Fatalf("Commit: %v", err)
	}
	if got := m.WALLSN(); got != 37 {
		t.Fatalf("WALLSN after plain Commit = %d, want 37", got)
	}
	m.Close()

	m2, err := OpenManifestFile(path)
	if err != nil {
		t.Fatalf("OpenManifestFile: %v", err)
	}
	defer m2.Close()
	if got := m2.WALLSN(); got != 37 {
		t.Errorf("reopened WALLSN = %d, want 37", got)
	}
	if got := m2.Gens(); !reflect.DeepEqual(got, []uint64{3, 2}) {
		t.Errorf("reopened gens = %v, want [3 2]", got)
	}
}

// There is one manifest format. A preamble that names any other — the
// LSN-less version 1 that once existed, or a version from the future — is
// corruption even when its checksum is intact.
func TestManifestOtherVersionsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.manifest")
	m, err := CreateManifestFile(path, [][]byte{[]byte(".x")}, []uint64{4, 5})
	if err != nil {
		t.Fatalf("CreateManifestFile: %v", err)
	}
	m.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	preLen := preambleLen(raw)
	for _, v := range []uint32{1, 3} {
		binary.BigEndian.PutUint32(raw[4:], v)
		binary.BigEndian.PutUint32(raw[preLen:], crc32.Checksum(raw[:preLen], castagnoli))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := OpenManifestFile(path); !errors.Is(err, ErrCorruptFile) {
			if err == nil {
				m.Close()
			}
			t.Errorf("version %d: err = %v, want ErrCorruptFile", v, err)
		}
	}
	binary.BigEndian.PutUint32(raw[4:], manifestVersion)
	binary.BigEndian.PutUint32(raw[preLen:], crc32.Checksum(raw[:preLen], castagnoli))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err = OpenManifestFile(path)
	if err != nil {
		t.Fatalf("the patching itself broke the file: %v", err)
	}
	m.Close()
}

// preambleLen walks an encoded preamble to the offset of its trailing CRC.
func preambleLen(raw []byte) int {
	nbounds := int(binary.BigEndian.Uint32(raw[12:]))
	off := 16
	for i := 0; i < nbounds; i++ {
		off += 2 + int(binary.BigEndian.Uint16(raw[off:]))
	}
	return off
}

func TestManifestValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := CreateManifestFile(filepath.Join(dir, "a"), nil, nil); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := CreateManifestFile(filepath.Join(dir, "b"), nil, make([]uint64, MaxShards+1)); err == nil {
		t.Error("too many shards accepted")
	}
	if _, err := CreateManifestFile(filepath.Join(dir, "c"), [][]byte{[]byte("x")}, []uint64{1}); err == nil {
		t.Error("bounds/shards mismatch accepted")
	}
	m, err := CreateManifestFile(filepath.Join(dir, "d"), [][]byte{[]byte("x")}, []uint64{1, 1})
	if err != nil {
		t.Fatalf("CreateManifestFile: %v", err)
	}
	defer m.Close()
	if err := m.Commit([]uint64{1}); err == nil {
		t.Error("short commit vector accepted")
	}
}

// A torn or corrupted newest slot must fall back to the previous commit, and
// byte damage anywhere in the fixed region must never surface stale data as
// current.
func TestManifestSlotCorruptionFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.manifest")
	m, err := CreateManifestFile(path, [][]byte{[]byte(".m")}, []uint64{1, 1})
	if err != nil {
		t.Fatalf("CreateManifestFile: %v", err)
	}
	if err := m.Commit([]uint64{5, 6}); err != nil { // gen 2 → slot at 1024
		t.Fatalf("Commit: %v", err)
	}
	m.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Generation parity picks the cell: gen 2 lives in the first slot cell,
	// gen 1 in the second.
	raw[manifestSlot0Off+3] ^= 0xff // damage the gen-2 slot
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenManifestFile(path)
	if err != nil {
		t.Fatalf("OpenManifestFile after slot damage: %v", err)
	}
	if m2.Gen() != 1 || !reflect.DeepEqual(m2.Gens(), []uint64{1, 1}) {
		t.Errorf("fallback state gen=%d gens=%v, want 1/[1 1]", m2.Gen(), m2.Gens())
	}
	m2.Close()

	// Damage the remaining slot too: no valid commit left.
	raw[manifestSlot0Off+manifestSlotSize+3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenManifestFile(path); !errors.Is(err, ErrCorruptFile) {
		t.Errorf("both slots damaged: err = %v, want ErrCorruptFile", err)
	}
}

func TestManifestPreambleCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pre.manifest")
	m, err := CreateManifestFile(path, [][]byte{[]byte(".q")}, []uint64{1, 1})
	if err != nil {
		t.Fatalf("CreateManifestFile: %v", err)
	}
	m.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[17] ^= 0x01 // inside the first bound's bytes
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenManifestFile(path); !errors.Is(err, ErrCorruptFile) {
		t.Errorf("preamble damage: err = %v, want ErrCorruptFile", err)
	}
	if _, err := OpenManifestFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("opening a missing manifest succeeded")
	}
}

// OpenDiskFileAt pins recovery to an explicit header generation: the
// manifest-directed rollback of a shard whose checkpoint outran the manifest
// commit. The pinned open must expose the pinned generation's data, and the
// next checkpoint must overwrite the orphaned newer generation.
func TestOpenDiskFileAtRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.uidx")
	f, err := CreateDiskFile(path, 128)
	if err != nil {
		t.Fatalf("CreateDiskFile: %v", err)
	}
	id, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 128)
	copy(page, "generation-two")
	if err := f.Write(id, page); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // gen 2
		t.Fatal(err)
	}
	// Copy-on-write, like the B-tree: gen 3 writes a fresh page and frees
	// the old one, never touching a page live at gen 2. Rollback soundness
	// depends on the writer honoring this discipline.
	id2, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	copy(page, "generation-three")
	if err := f.Write(id2, page); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // gen 3: the checkpoint the manifest never saw
		t.Fatal(err)
	}
	gen3 := f.Generation()
	// A writer keeps going after gen 3, before any manifest commit. The page
	// gen 3 freed is still live at gen 2, the generation the manifest would
	// roll back to, so this allocation must not recycle it.
	id3, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	copy(page, "after-generation-three")
	if err := f.Write(id3, page); err != nil {
		t.Fatal(err)
	}
	// CloseDiscard: a plain Close would checkpoint once more and overwrite
	// the gen-2 header slot with gen 4.
	if err := f.CloseDiscard(); err != nil {
		t.Fatal(err)
	}
	if gen3 != 3 {
		t.Fatalf("generation after two checkpoints = %d, want 3", gen3)
	}

	r, err := OpenDiskFileAt(path, 2)
	if err != nil {
		t.Fatalf("OpenDiskFileAt(2): %v", err)
	}
	got := make([]byte, 128)
	if err := r.Read(id, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(got[:len("generation-two")]) != "generation-two" {
		t.Errorf("pinned open reads %q, want the generation-2 payload", got[:16])
	}
	if r.Generation() != 2 {
		t.Errorf("pinned Generation() = %d, want 2", r.Generation())
	}
	// Checkpointing from the rolled-back state publishes gen 3 over the
	// orphaned slot; a plain open then lands on the new lineage. Shadow
	// discipline: write a freshly allocated page, never a live one.
	nid, err := r.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	copy(got, "generation-three-b")
	if err := r.Write(nid, got); err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if r.Generation() != 3 {
		t.Errorf("post-rollback checkpoint generation = %d, want 3", r.Generation())
	}
	if err := r.CloseDiscard(); err != nil {
		t.Fatal(err)
	}
	rr, err := OpenDiskFile(path)
	if err != nil {
		t.Fatalf("reopen after rollback checkpoint: %v", err)
	}
	if rr.Generation() != 3 {
		t.Errorf("plain reopen generation = %d, want 3", rr.Generation())
	}
	rr.Close()

	if _, err := OpenDiskFileAt(path, 9); !errors.Is(err, ErrCorruptFile) {
		t.Errorf("OpenDiskFileAt(missing gen): err = %v, want ErrCorruptFile", err)
	}
}
