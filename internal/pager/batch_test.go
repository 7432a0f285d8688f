package pager

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// fillPage writes a recognizable pattern derived from seed into buf.
func fillPage(buf []byte, seed int) {
	for i := range buf {
		buf[i] = byte(seed*131 + i)
	}
}

// newBatchFile allocates n pages with distinct contents on f and returns
// their ids.
func newBatchFile(t *testing.T, f File, n int) []PageID {
	t.Helper()
	ids := make([]PageID, n)
	buf := make([]byte, f.PageSize())
	for i := range ids {
		id, err := f.Alloc()
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		fillPage(buf, int(id))
		if err := f.Write(id, buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		ids[i] = id
	}
	return ids
}

// checkBatch reads ids via ReadBatch and verifies every page against the
// synchronous Read path.
func checkBatch(t *testing.T, f File, ids []PageID) {
	t.Helper()
	bufs := make([][]byte, len(ids))
	for i := range bufs {
		bufs[i] = make([]byte, f.PageSize())
	}
	if errs := ReadPages(f, ids, bufs); errs != nil {
		for i, err := range errs {
			if err != nil {
				t.Fatalf("ReadBatch page %d (id %d): %v", i, ids[i], err)
			}
		}
	}
	want := make([]byte, f.PageSize())
	for i, id := range ids {
		if err := f.Read(id, want); err != nil {
			t.Fatalf("read id %d: %v", id, err)
		}
		if string(want) != string(bufs[i]) {
			t.Fatalf("page id %d: batch contents differ from Read", id)
		}
	}
}

func batchFiles(t *testing.T) map[string]File {
	t.Helper()
	disk, err := CreateDiskFile(filepath.Join(t.TempDir(), "batch.uidx"), 0)
	if err != nil {
		t.Fatalf("create disk file: %v", err)
	}
	t.Cleanup(func() { disk.Close() })
	return map[string]File{"mem": NewMemFile(0), "disk": disk}
}

func TestReadBatchMatchesRead(t *testing.T) {
	for name, f := range batchFiles(t) {
		t.Run(name, func(t *testing.T) {
			ids := newBatchFile(t, f, 200)
			// Contiguous ascending: one long coalesced run (chunked at
			// batchRunPages).
			checkBatch(t, f, ids)
			// Shuffled: many runs, resorted internally, results must land
			// at the caller's positions.
			shuffled := append([]PageID(nil), ids...)
			rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			checkBatch(t, f, shuffled)
			// Sparse with gaps and duplicates.
			sparse := []PageID{ids[0], ids[9], ids[10], ids[11], ids[50], ids[50], ids[199]}
			checkBatch(t, f, sparse)
			// Empty batch.
			if errs := ReadPages(f, nil, nil); errs != nil {
				t.Fatalf("empty batch: %v", errs)
			}
		})
	}
}

func TestReadBatchPerPageErrors(t *testing.T) {
	for name, f := range batchFiles(t) {
		t.Run(name, func(t *testing.T) {
			ids := newBatchFile(t, f, 8)
			if err := f.Free(ids[3]); err != nil {
				t.Fatalf("free: %v", err)
			}
			req := []PageID{ids[0], ids[3], PageID(1 << 20), ids[7]}
			bufs := make([][]byte, len(req))
			for i := range bufs {
				bufs[i] = make([]byte, f.PageSize())
			}
			bufs[3] = bufs[3][:10] // wrong size for the last sub-read
			errs := ReadPages(f, req, bufs)
			if errs == nil {
				t.Fatalf("expected per-page errors")
			}
			if errs[0] != nil {
				t.Fatalf("healthy page got error: %v", errs[0])
			}
			if !errors.Is(errs[1], ErrFreed) {
				t.Fatalf("freed page: got %v, want ErrFreed", errs[1])
			}
			if !errors.Is(errs[2], ErrPageBounds) {
				t.Fatalf("out-of-range page: got %v, want ErrPageBounds", errs[2])
			}
			if !errors.Is(errs[3], ErrPageSize) {
				t.Fatalf("short buffer: got %v, want ErrPageSize", errs[3])
			}
			// The healthy sub-read still produced the right contents.
			want := make([]byte, f.PageSize())
			fillPage(want, int(ids[0]))
			if string(bufs[0]) != string(want) {
				t.Fatalf("healthy page contents wrong after sibling errors")
			}
		})
	}
}

// TestReadBatchCorruptPageIsolated proves a torn/corrupt slot fails only its
// own sub-read: siblings in the same coalesced run still verify and return
// valid contents.
func TestReadBatchCorruptPageIsolated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.uidx")
	d, err := CreateDiskFile(path, 0)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer d.Close()
	ids := newBatchFile(t, d, 16)
	if err := d.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// Flip a payload byte of one page in the middle of the contiguous run,
	// bypassing the pager (a torn or bit-rotted sector).
	victim := ids[7]
	raw, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open raw: %v", err)
	}
	off := int64(victim)*(int64(d.PageSize())+slotTrailerSize) + 100
	if _, err := raw.WriteAt([]byte{0xFF}, off); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	if err := raw.Close(); err != nil {
		t.Fatalf("close raw: %v", err)
	}

	bufs := make([][]byte, len(ids))
	for i := range bufs {
		bufs[i] = make([]byte, d.PageSize())
	}
	errs := d.ReadBatch(ids, bufs)
	if errs == nil {
		t.Fatalf("expected a corrupt-page error")
	}
	for i, id := range ids {
		if id == victim {
			var corrupt ErrCorruptPage
			if !errors.As(errs[i], &corrupt) || corrupt.ID != victim {
				t.Fatalf("victim: got %v, want ErrCorruptPage{%d}", errs[i], victim)
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("sibling id %d poisoned: %v", id, errs[i])
		}
		want := make([]byte, d.PageSize())
		fillPage(want, int(id))
		if string(bufs[i]) != string(want) {
			t.Fatalf("sibling id %d contents wrong", id)
		}
	}
}

func TestReadBatchAfterReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reopen.uidx")
	d, err := CreateDiskFile(path, 0)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	ids := newBatchFile(t, d, 40)
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	d, err = OpenDiskFile(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d.Close()
	checkBatch(t, d, ids)
}

func TestDropOSCache(t *testing.T) {
	d, err := CreateDiskFile(filepath.Join(t.TempDir(), "drop.uidx"), 0)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer d.Close()
	ids := newBatchFile(t, d, 10)
	if err := d.DropOSCache(); err != nil {
		t.Fatalf("DropOSCache: %v", err)
	}
	checkBatch(t, d, ids) // contents must be unaffected
}

func TestReadBatchStatsCountPerPage(t *testing.T) {
	for name, f := range batchFiles(t) {
		t.Run(name, func(t *testing.T) {
			ids := newBatchFile(t, f, 12)
			before := f.Stats().Reads
			checkBatch(t, f, ids) // checkBatch also issues 12 single Reads
			got := f.Stats().Reads - before
			if want := int64(2 * len(ids)); got != want {
				t.Fatalf("Stats.Reads delta = %d, want %d", got, want)
			}
		})
	}
}

func TestUringAvailableStable(t *testing.T) {
	a, b := UringAvailable(), UringAvailable()
	if a != b {
		t.Fatalf("UringAvailable not stable: %v then %v", a, b)
	}
	t.Logf("io_uring available: %v", a)
}

func BenchmarkReadBatchDisk(b *testing.B) {
	d, err := CreateDiskFile(filepath.Join(b.TempDir(), "bench.uidx"), 0)
	if err != nil {
		b.Fatalf("create: %v", err)
	}
	defer d.Close()
	const n = 256
	ids := make([]PageID, n)
	buf := make([]byte, d.PageSize())
	for i := range ids {
		id, _ := d.Alloc()
		fillPage(buf, int(id))
		if err := d.Write(id, buf); err != nil {
			b.Fatalf("write: %v", err)
		}
		ids[i] = id
	}
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = make([]byte, d.PageSize())
	}
	for _, batch := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for off := 0; off < n; off += batch {
					end := min(off+batch, n)
					if errs := d.ReadBatch(ids[off:end], bufs[off:end]); errs != nil {
						b.Fatalf("batch: %v", errs)
					}
				}
			}
		})
	}
}

// TestReadBatchScratchAllocs pins that a batch reads through scratch kept on
// the DiskFile: once a first call has grown it, a batch that fails nowhere
// allocates nothing. The portable multi-run path starts worker goroutines,
// which allocate, so only io_uring builds check that case.
func TestReadBatchScratchAllocs(t *testing.T) {
	d, err := CreateDiskFile(filepath.Join(t.TempDir(), "allocs.uidx"), 0)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer d.Close()
	ids := newBatchFile(t, d, 64)
	for _, tc := range []struct {
		name     string
		req      []PageID
		needRing bool
	}{
		{"one-run", []PageID{ids[12], ids[10], ids[13], ids[11]}, false},
		{"multi-run", []PageID{ids[40], ids[3], ids[4], ids[22], ids[5], ids[41], ids[9], ids[60]}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.needRing && !UringAvailable() {
				t.Skip("portable multi-run reads start goroutines")
			}
			bufs := make([][]byte, len(tc.req))
			for i := range bufs {
				bufs[i] = make([]byte, d.PageSize())
			}
			read := func() {
				if errs := d.ReadBatch(tc.req, bufs); errs != nil {
					t.Fatalf("ReadBatch: %v", errs)
				}
			}
			read() // grows the scratch
			if got := testing.AllocsPerRun(20, read); got != 0 {
				t.Fatalf("ReadBatch of %d pages allocates %v objects, want 0", len(tc.req), got)
			}
		})
	}
}

// TestReadBatchScratchNoLeak alternates large and small batches on one
// DiskFile — with duplicate ids, an id past the end and a corrupt page — and
// checks every position of every call against Read: nothing of an earlier,
// larger call's runs, run errors or sort order may reach a later one.
func TestReadBatchScratchNoLeak(t *testing.T) {
	path := filepath.Join(t.TempDir(), "leak.uidx")
	d, err := CreateDiskFile(path, 0)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer d.Close()
	ids := newBatchFile(t, d, 120)
	if err := d.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	victim := ids[33]
	raw, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open raw: %v", err)
	}
	off := int64(victim)*(int64(d.PageSize())+slotTrailerSize) + 5
	if _, err := raw.WriteAt([]byte{0xA5}, off); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	if err := raw.Close(); err != nil {
		t.Fatalf("close raw: %v", err)
	}

	rng := rand.New(rand.NewSource(11))
	want := make([]byte, d.PageSize())
	for round := 0; round < 12; round++ {
		var req []PageID
		if round%2 == 0 {
			req = append(req, ids[20:90]...) // one corrupt page among long runs
			req = append(req, ids[5], ids[5], PageID(1<<20), ids[100])
		} else {
			req = append(req, ids[rng.Intn(len(ids))], ids[110], ids[110])
		}
		rng.Shuffle(len(req), func(i, j int) { req[i], req[j] = req[j], req[i] })
		bufs := make([][]byte, len(req))
		for i := range bufs {
			bufs[i] = make([]byte, d.PageSize())
		}
		errs := d.ReadBatch(req, bufs)
		for i, id := range req {
			var got error
			if errs != nil {
				got = errs[i]
			}
			rerr := d.Read(id, want)
			switch {
			case rerr != nil:
				if got == nil || got.Error() != rerr.Error() {
					t.Fatalf("round %d position %d (id %d): batch error %v, Read error %v", round, i, id, got, rerr)
				}
			case got != nil:
				t.Fatalf("round %d position %d (id %d): batch error %v, Read succeeds", round, i, id, got)
			case string(bufs[i]) != string(want):
				t.Fatalf("round %d position %d (id %d): batch contents differ from Read", round, i, id)
			}
		}
	}
}
