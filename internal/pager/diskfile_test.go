package pager

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// newTestDisk creates a small populated page file and returns its path,
// the live page ids, and their contents. The file is closed (checkpointed).
func newTestDisk(t *testing.T, pages int) (string, []PageID, map[PageID][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "disk.db")
	f, err := CreateDiskFile(path, 128)
	if err != nil {
		t.Fatalf("CreateDiskFile: %v", err)
	}
	var ids []PageID
	want := make(map[PageID][]byte)
	for i := 0; i < pages; i++ {
		id, err := f.Alloc()
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		buf := bytes.Repeat([]byte{byte(i + 1)}, 128)
		if err := f.Write(id, buf); err != nil {
			t.Fatalf("Write: %v", err)
		}
		ids = append(ids, id)
		want[id] = buf
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path, ids, want
}

func TestReadDetectsCorruptPage(t *testing.T) {
	path, ids, _ := newTestDisk(t, 4)
	f, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	slot := int64(ids[2]) * (128 + slotTrailerSize)
	// Flip one payload byte behind the pager's back.
	raw, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := raw.ReadAt(b[:], slot+17); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := raw.WriteAt(b[:], slot+17); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	buf := make([]byte, 128)
	err = f.Read(ids[2], buf)
	var corrupt ErrCorruptPage
	if !errors.As(err, &corrupt) {
		t.Fatalf("Read of corrupted page = %v, want ErrCorruptPage", err)
	}
	if corrupt.ID != ids[2] {
		t.Errorf("ErrCorruptPage.ID = %d, want %d", corrupt.ID, ids[2])
	}
	// Undamaged pages still read cleanly.
	if err := f.Read(ids[0], buf); err != nil {
		t.Errorf("Read of intact page: %v", err)
	}
	f.Close()
}

func TestCorruptCRCDetected(t *testing.T) {
	path, ids, want := newTestDisk(t, 3)
	// Flip a byte of the stored checksum instead of the payload.
	slot := int64(ids[1]) * (128 + slotTrailerSize)
	raw, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := raw.ReadAt(b[:], slot+128+crcOff); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := raw.WriteAt(b[:], slot+128+crcOff); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	f, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 128)
	var corrupt ErrCorruptPage
	if err := f.Read(ids[1], buf); !errors.As(err, &corrupt) {
		t.Fatalf("Read with corrupt CRC = %v, want ErrCorruptPage", err)
	}
	// Rewriting the page heals it.
	if err := f.Write(ids[1], want[ids[1]]); err != nil {
		t.Fatal(err)
	}
	if err := f.Read(ids[1], buf); err != nil {
		t.Errorf("Read after rewriting: %v", err)
	}
}

func TestOpenTruncatedFile(t *testing.T) {
	path, _, _ := newTestDisk(t, 4)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Shorter than the header pair: always ErrCorruptFile.
	for _, n := range []int{0, 1, 17, headerPairSize - 1} {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDiskFile(path); !errors.Is(err, ErrCorruptFile) {
			t.Errorf("open of %d-byte file = %v, want ErrCorruptFile", n, err)
		}
	}
	// Valid headers but the checkpointed page count points past EOF.
	if err := os.WriteFile(path, full[:headerPairSize], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskFile(path); !errors.Is(err, ErrCorruptFile) {
		t.Errorf("open with page count past EOF = %v, want ErrCorruptFile", err)
	}
}

func TestOpenBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-pagefile")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xCC}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskFile(path); !errors.Is(err, ErrCorruptFile) {
		t.Errorf("open of garbage file = %v, want ErrCorruptFile", err)
	}
}

func TestOpenCorruptFreeChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.db")
	f, err := CreateDiskFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, err := f.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids[:2] {
		if err := f.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Point the first free page's sidecar links (both parity slots) out of
	// range.
	raw, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(ids[0])*(128+slotTrailerSize) + 128 + 4
	if _, err := raw.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, off); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	if _, err := OpenDiskFile(path); !errors.Is(err, ErrCorruptFile) {
		t.Errorf("open with corrupt free chain = %v, want ErrCorruptFile", err)
	}
}

// TestOpenByteFlipSweep flips every byte of a small page file in turn and
// requires that OpenDiskFile either fails with ErrCorruptFile or succeeds —
// and that on success every live page read returns intact data or a typed
// checksum error. Nothing may panic and garbage may never be served.
func TestOpenByteFlipSweep(t *testing.T) {
	path, ids, want := newTestDisk(t, 3)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pristine {
		mutated := append([]byte(nil), pristine...)
		mutated[i] ^= 0xFF
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := OpenDiskFile(path)
		if err != nil {
			if !errors.Is(err, ErrCorruptFile) {
				t.Fatalf("flip byte %d: open error %v is not ErrCorruptFile", i, err)
			}
			continue
		}
		buf := make([]byte, 128)
		for _, id := range ids {
			// A flip in the newest header slot makes recovery fall back
			// to an older generation where the page may not exist yet
			// (ErrPageBounds) or is an adopted orphan (ErrFreed); a flip
			// in the page slot itself must give ErrCorruptPage. Every
			// other outcome must be intact data.
			err := f.Read(id, buf)
			if err == nil && !bytes.Equal(buf, want[id]) {
				t.Fatalf("flip byte %d: page %d read garbage without error", i, id)
			}
			if err != nil {
				var corrupt ErrCorruptPage
				if !errors.As(err, &corrupt) && !errors.Is(err, ErrPageBounds) && !errors.Is(err, ErrFreed) {
					t.Fatalf("flip byte %d: page %d read error %v, want a typed pager error", i, id, err)
				}
			}
		}
		f.Close()
	}
}

// TestHeaderPairFallback corrupts the newest header slot and checks that
// recovery falls back to the previous generation's state.
func TestHeaderPairFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pair.db")
	f, err := CreateDiskFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	id, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	one := bytes.Repeat([]byte{1}, 128)
	if err := f.Write(id, one); err != nil {
		t.Fatal(err)
	}
	if err := f.Checkpoint([]byte("gen-A")); err != nil {
		t.Fatal(err)
	}
	genA := f.Generation()
	// Second checkpoint with more state.
	id2, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(id2, bytes.Repeat([]byte{2}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := f.Checkpoint([]byte("gen-B")); err != nil {
		t.Fatal(err)
	}
	genB := f.Generation()
	if genB != genA+1 {
		t.Fatalf("generation after second checkpoint = %d, want %d", genB, genA+1)
	}
	f.b.Close() // abandon without the closing checkpoint

	// Smash the slot holding the newest generation.
	raw, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	slot := int64(genB%2) * headerSlotSize
	if _, err := raw.WriteAt(bytes.Repeat([]byte{0xEE}, headerSlotSize), slot); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	g, err := OpenDiskFile(path)
	if err != nil {
		t.Fatalf("OpenDiskFile with torn newest header: %v", err)
	}
	defer g.Close()
	if g.Generation() != genA {
		t.Errorf("recovered generation = %d, want fallback to %d", g.Generation(), genA)
	}
	if got := g.Payload(); string(got) != "gen-A" {
		t.Errorf("recovered payload = %q, want %q", got, "gen-A")
	}
	if n := g.NumPages(); n != 1 {
		t.Errorf("recovered NumPages = %d, want 1 (gen-A state)", n)
	}
	buf := make([]byte, 128)
	if err := g.Read(id, buf); err != nil || !bytes.Equal(buf, one) {
		t.Errorf("gen-A page unreadable after fallback: %v", err)
	}
}

// TestOrphanReclamation: pages allocated after the last checkpoint are
// adopted into the free list on recovery and, like any page freed after a
// checkpoint, reused once two more checkpoints are published, so an
// interrupted checkpoint can never leak disk space.
func TestOrphanReclamation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "orphan.db")
	f, err := CreateDiskFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	id, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(id, bytes.Repeat([]byte{7}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Shadow pages written after the checkpoint, then a simulated crash
	// (the file handle is dropped without the closing checkpoint).
	var orphans []PageID
	for i := 0; i < 3; i++ {
		o, err := f.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		orphans = append(orphans, o)
	}
	f.b.Close()

	g, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if n := g.NumPages(); n != 1 {
		t.Fatalf("NumPages after recovery = %d, want 1", n)
	}
	// The orphans are quarantined: not allocable until two checkpoints...
	first, err := g.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if first != orphans[len(orphans)-1]+1 {
		t.Fatalf("Alloc before checkpoint = %d, want fresh page %d", first, orphans[len(orphans)-1]+1)
	}
	if err := g.Free(first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := g.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// ...and recycled afterwards instead of growing the file.
	got := map[PageID]bool{}
	for i := 0; i < len(orphans)+1; i++ {
		id, err := g.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		got[id] = true
	}
	for _, o := range orphans {
		if !got[o] {
			t.Errorf("orphan page %d was not recycled after checkpoint (got %v)", o, got)
		}
	}
}

// TestPendingFreeQuarantine: a page freed after checkpoint g must not be
// handed out again before checkpoint g+2: generation g references it, and a
// manifest may roll the file back to g until g+1 is recorded. A page
// allocated and freed between two checkpoints is in no published generation
// and is handed out again at once.
func TestPendingFreeQuarantine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pending.db")
	f, err := CreateDiskFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	id, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(id); err != nil {
		t.Fatal(err)
	}
	id2, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatal("freed page recycled before checkpoint; recoverable state corrupted")
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	id3, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id {
		t.Fatal("freed page recycled one checkpoint later; the rollback generation is corrupted")
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	id4, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id4 != id {
		t.Fatalf("Alloc after two checkpoints = %d, want promoted page %d", id4, id)
	}
	if err := f.Free(id4); err != nil {
		t.Fatal(err)
	}
	if id5, err := f.Alloc(); err != nil || id5 != id4 {
		t.Fatalf("Alloc after freeing a page allocated since the checkpoint = %d, %v; want page %d", id5, err, id4)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "payload.db")
	f, err := CreateDiskFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Payload()) != 0 {
		t.Errorf("fresh file payload = %q, want empty", f.Payload())
	}
	if err := f.SetPayload(bytes.Repeat([]byte{1}, MaxPayload+1)); err == nil {
		t.Error("SetPayload over MaxPayload succeeded, want error")
	}
	if err := f.SetPayload([]byte("root=42")); err != nil {
		t.Fatal(err)
	}
	// Staged but not yet checkpointed: a crash now recovers the old
	// (empty) payload. Close checkpoints, making it durable.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if got := string(g.Payload()); got != "root=42" {
		t.Errorf("recovered payload = %q, want %q", got, "root=42")
	}
}

func TestCreateRejectsTinyPages(t *testing.T) {
	if _, err := CreateDiskFile(filepath.Join(t.TempDir(), "tiny.db"), MinDiskPageSize-1); err == nil {
		t.Error("CreateDiskFile below MinDiskPageSize succeeded, want error")
	}
}
