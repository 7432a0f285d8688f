package bufferpool

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/pager"
)

var _ pager.File = (*Pool)(nil)

// countingFile wraps a pager.File and counts physical writes per page.
type countingFile struct {
	pager.File
	mu     sync.Mutex
	writes map[pager.PageID]int
	reads  map[pager.PageID]int
}

func newCountingFile(f pager.File) *countingFile {
	return &countingFile{File: f, writes: map[pager.PageID]int{}, reads: map[pager.PageID]int{}}
}

func (c *countingFile) Write(id pager.PageID, buf []byte) error {
	c.mu.Lock()
	c.writes[id]++
	c.mu.Unlock()
	return c.File.Write(id, buf)
}

func (c *countingFile) Read(id pager.PageID, buf []byte) error {
	c.mu.Lock()
	c.reads[id]++
	c.mu.Unlock()
	return c.File.Read(id, buf)
}

func (c *countingFile) writeCount(id pager.PageID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes[id]
}

func (c *countingFile) readCount(id pager.PageID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads[id]
}

// newPool builds a pool over a fresh MemFile with n pre-allocated pages,
// each stamped with its page id.
func newPool(t *testing.T, frames, pages int) (*Pool, []pager.PageID) {
	t.Helper()
	mf := pager.NewMemFile(128)
	ids := make([]pager.PageID, pages)
	buf := make([]byte, 128)
	for i := range ids {
		id, err := mf.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(id)
		if err := mf.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	p, err := New(mf, Config{Pages: frames})
	if err != nil {
		t.Fatal(err)
	}
	return p, ids
}

func readPage(t *testing.T, p *Pool, id pager.PageID) byte {
	t.Helper()
	buf := make([]byte, p.PageSize())
	if err := p.Read(id, buf); err != nil {
		t.Fatalf("read %d: %v", id, err)
	}
	return buf[0]
}

func TestReadServesCachedPage(t *testing.T) {
	t.Run("clock", func(t *testing.T) {
		p, ids := newPool(t, 4, 3)
		for _, id := range ids {
			if got := readPage(t, p, id); got != byte(id) {
				t.Fatalf("page %d: got %d", id, got)
			}
		}
		// Second pass must be all hits.
		before := p.PoolStats()
		for _, id := range ids {
			readPage(t, p, id)
		}
		after := p.PoolStats()
		if after.Misses != before.Misses {
			t.Errorf("re-reads missed: %d -> %d", before.Misses, after.Misses)
		}
		if after.Hits != before.Hits+int64(len(ids)) {
			t.Errorf("hits %d -> %d, want +%d", before.Hits, after.Hits, len(ids))
		}
		if after.PhysicalReads != int64(len(ids)) {
			t.Errorf("physical reads %d, want %d", after.PhysicalReads, len(ids))
		}
	})
}

// TestEvictionOrderClock checks the second-chance sweep: the first frame the
// hand reaches with a cleared reference bit is the victim.
func TestEvictionOrderClock(t *testing.T) {
	p, ids := newPool(t, 2, 3)
	a, b, c := ids[0], ids[1], ids[2]
	readPage(t, p, a) // frame 0, ref set
	readPage(t, p, b) // frame 1, ref set
	readPage(t, p, c) // sweep clears both refs, evicts frame 0 (a)
	before := p.PoolStats()
	readPage(t, p, b) // must still be resident
	if got := p.PoolStats(); got.Misses != before.Misses {
		t.Errorf("b was evicted; clock should have victimized a")
	}
	readPage(t, p, a) // evicted, re-load
	if got := p.PoolStats(); got.PhysicalReads != before.PhysicalReads+1 {
		t.Errorf("a still resident; clock should have victimized it")
	}
}

func TestPinPreventsEviction(t *testing.T) {
	t.Run("clock", func(t *testing.T) {
		p, ids := newPool(t, 2, 4)
		buf, err := p.Pin(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(ids[0]) {
			t.Fatalf("pinned page contents: got %d", buf[0])
		}
		// Cycle the other pages through the single remaining frame.
		for _, id := range ids[1:] {
			readPage(t, p, id)
		}
		// The pinned page must still be resident and untouched.
		before := p.PoolStats()
		if got := readPage(t, p, ids[0]); got != byte(ids[0]) {
			t.Fatalf("pinned page contents changed: %d", got)
		}
		if got := p.PoolStats(); got.Misses != before.Misses {
			t.Error("pinned page was evicted")
		}
		if err := p.Unpin(ids[0], false); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllFramesPinned(t *testing.T) {
	p, ids := newPool(t, 2, 3)
	for _, id := range ids[:2] {
		if _, err := p.Pin(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Read(ids[2], make([]byte, p.PageSize())); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("read with all frames pinned: %v, want ErrNoFrames", err)
	}
	if err := p.Unpin(ids[0], false); err != nil {
		t.Fatal(err)
	}
	if err := p.Read(ids[2], make([]byte, p.PageSize())); err != nil {
		t.Fatalf("read after unpin: %v", err)
	}
}

func TestNestedPins(t *testing.T) {
	p, ids := newPool(t, 1, 2)
	if _, err := p.Pin(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pin(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(ids[0], false); err != nil {
		t.Fatal(err)
	}
	// One pin outstanding: the only frame is still unavailable.
	if err := p.Read(ids[1], make([]byte, p.PageSize())); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("want ErrNoFrames while a pin is outstanding, got %v", err)
	}
	if err := p.Unpin(ids[0], false); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(ids[0], false); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("extra unpin: %v, want ErrNotPinned", err)
	}
}

// TestDirtyWritebackExactlyOnce verifies a dirty page is written to the
// backing file exactly once when evicted, and a clean page not at all.
func TestDirtyWritebackExactlyOnce(t *testing.T) {
	mf := pager.NewMemFile(128)
	var ids []pager.PageID
	for i := 0; i < 3; i++ {
		id, err := mf.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	cf := newCountingFile(mf)
	p, err := New(cf, Config{Pages: 1})
	if err != nil {
		t.Fatal(err)
	}
	dirty := bytes.Repeat([]byte{7}, 128)
	// Load ids[0] (via read), modify it through the pool: resident, dirty.
	readPage(t, p, ids[0])
	if err := p.Write(ids[0], dirty); err != nil {
		t.Fatal(err)
	}
	if got := cf.writeCount(ids[0]); got != 0 {
		t.Fatalf("dirty page written before eviction: %d writes", got)
	}
	readPage(t, p, ids[1]) // evicts ids[0]: exactly one write-back
	if got := cf.writeCount(ids[0]); got != 1 {
		t.Fatalf("dirty eviction wrote %d times, want 1", got)
	}
	readPage(t, p, ids[2]) // evicts clean ids[1]: no write
	if got := cf.writeCount(ids[1]); got != 0 {
		t.Fatalf("clean eviction wrote %d times, want 0", got)
	}
	// The written-back contents must be the dirty ones.
	buf := make([]byte, 128)
	if err := mf.Read(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, dirty) {
		t.Error("write-back lost the modified contents")
	}
	st := p.PoolStats()
	if st.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", st.Writebacks)
	}
}

func TestWriteThroughUncached(t *testing.T) {
	mf := pager.NewMemFile(128)
	id, err := mf.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	cf := newCountingFile(mf)
	p, err := New(cf, Config{Pages: 2})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{9}, 128)
	if err := p.Write(id, data); err != nil {
		t.Fatal(err)
	}
	if got := cf.writeCount(id); got != 1 {
		t.Fatalf("uncached write not written through (writes=%d)", got)
	}
	// Bad ids keep the backing file's validation on the write path.
	if err := p.Write(pager.PageID(99), data); !errors.Is(err, pager.ErrPageBounds) {
		t.Fatalf("out-of-bounds write: %v, want ErrPageBounds", err)
	}
	if err := p.Write(id, data[:10]); !errors.Is(err, pager.ErrPageSize) {
		t.Fatalf("short write: %v, want ErrPageSize", err)
	}
}

func TestAllocCachesZeroedPage(t *testing.T) {
	mf := pager.NewMemFile(128)
	cf := newCountingFile(mf)
	p, err := New(cf, Config{Pages: 4})
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if got := readPage(t, p, id); got != 0 {
		t.Fatalf("fresh page not zeroed: %d", got)
	}
	if got := cf.readCount(id); got != 0 {
		t.Fatalf("alloc+read paid %d physical reads, want 0", got)
	}
	// Writing the fresh page stays in the frame (write-back, not through).
	if err := p.Write(id, bytes.Repeat([]byte{3}, 128)); err != nil {
		t.Fatal(err)
	}
	if got := cf.writeCount(id); got != 0 {
		t.Fatalf("write to cached fresh page wrote through (%d writes)", got)
	}
}

func TestFreeDiscardsDirtyFrame(t *testing.T) {
	mf := pager.NewMemFile(128)
	id, err := mf.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	cf := newCountingFile(mf)
	p, err := New(cf, Config{Pages: 2})
	if err != nil {
		t.Fatal(err)
	}
	readPage(t, p, id)
	if err := p.Write(id, bytes.Repeat([]byte{5}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(id); err != nil {
		t.Fatal(err)
	}
	if got := cf.writeCount(id); got != 0 {
		t.Fatalf("freed page was written back (%d writes)", got)
	}
	if err := p.Read(id, make([]byte, 128)); !errors.Is(err, pager.ErrFreed) {
		t.Fatalf("read of freed page: %v, want ErrFreed", err)
	}
	// Pinned pages cannot be freed.
	id2, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pin(id2); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(id2); err == nil {
		t.Fatal("free of pinned page succeeded")
	}
	if err := p.Unpin(id2, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(id2); err != nil {
		t.Fatal(err)
	}
}

func TestFlushAllAndClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.pages")
	df, err := pager.CreateDiskFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(df, Config{Pages: 8})
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 128)
	if err := p.Write(id, data); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// After FlushAll the bytes are in the backing file (and fsynced).
	buf := make([]byte, 128)
	if err := df.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Error("FlushAll did not reach the backing file")
	}
	if st := p.PoolStats(); st.Flushes == 0 {
		t.Error("FlushAll recorded no flushes")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v, want ErrClosed", err)
	}
	if err := p.Read(id, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v, want ErrClosed", err)
	}
	// The flushed page survives a reopen.
	df2, err := pager.OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer df2.Close()
	if err := df2.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Error("flushed page lost across reopen")
	}
}

func TestCloseReportsLeakedPins(t *testing.T) {
	p, ids := newPool(t, 2, 1)
	if _, err := p.Pin(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err == nil {
		t.Fatal("close with a leaked pin reported no error")
	}
}

// TestEquivalenceWithPlainFile drives the pool and a bare MemFile through
// the same random operation sequence and requires identical observable
// behaviour — the pool must be transparent.
func TestEquivalenceWithPlainFile(t *testing.T) {
	t.Run("clock", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		plain := pager.NewMemFile(64)
		pooled, err := New(pager.NewMemFile(64), Config{Pages: 4})
		if err != nil {
			t.Fatal(err)
		}
		var live []pager.PageID
		buf1 := make([]byte, 64)
		buf2 := make([]byte, 64)
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
			case op < 3 || len(live) == 0: // alloc
				id1, err1 := plain.Alloc()
				id2, err2 := pooled.Alloc()
				if (err1 == nil) != (err2 == nil) || id1 != id2 {
					t.Fatalf("step %d: alloc diverged: %v/%v %d/%d", step, err1, err2, id1, id2)
				}
				live = append(live, id1)
			case op < 5: // free
				i := rng.Intn(len(live))
				id := live[i]
				live = append(live[:i], live[i+1:]...)
				if err1, err2 := plain.Free(id), pooled.Free(id); (err1 == nil) != (err2 == nil) {
					t.Fatalf("step %d: free diverged: %v vs %v", step, err1, err2)
				}
			case op < 8: // write
				id := live[rng.Intn(len(live))]
				rng.Read(buf1)
				copy(buf2, buf1)
				if err1, err2 := plain.Write(id, buf1), pooled.Write(id, buf2); (err1 == nil) != (err2 == nil) {
					t.Fatalf("step %d: write diverged: %v vs %v", step, err1, err2)
				}
			default: // read
				id := live[rng.Intn(len(live))]
				err1 := plain.Read(id, buf1)
				err2 := pooled.Read(id, buf2)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("step %d: read diverged: %v vs %v", step, err1, err2)
				}
				if err1 == nil && !bytes.Equal(buf1, buf2) {
					t.Fatalf("step %d: page %d contents diverged", step, id)
				}
			}
			if plain.NumPages() != pooled.NumPages() {
				t.Fatalf("step %d: NumPages %d vs %d", step, plain.NumPages(), pooled.NumPages())
			}
		}
		// Flush and compare every live page in the backing files.
		if err := pooled.FlushAll(); err != nil {
			t.Fatal(err)
		}
		for _, id := range live {
			if err := plain.Read(id, buf1); err != nil {
				t.Fatal(err)
			}
			if err := pooled.Inner().Read(id, buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf1, buf2) {
				t.Fatalf("page %d differs after flush", id)
			}
		}
	})
}

// TestConcurrentSmoke hammers the pool from many goroutines (run with
// -race): concurrent reads, writes, and pin/unpin cycles on a working set
// larger than the pool.
func TestConcurrentSmoke(t *testing.T) {
	t.Run("clock", func(t *testing.T) {
		mf := pager.NewMemFile(128)
		const pages = 32
		ids := make([]pager.PageID, pages)
		buf := make([]byte, 128)
		for i := range ids {
			id, err := mf.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			buf[0] = byte(id)
			if err := mf.Write(id, buf); err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		p, err := New(mf, Config{Pages: 8})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errCh := make(chan error, 16)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				local := make([]byte, 128)
				for i := 0; i < 500; i++ {
					// Reads may roam (the pool copies under its lock);
					// writes and pins stay on goroutine-owned pages so
					// no one mutates a page while another holds its
					// pinned buffer — the caller-side discipline the
					// Pin contract requires.
					id := ids[rng.Intn(pages)]
					owned := ids[rng.Intn(pages/8)*8+g]
					switch rng.Intn(3) {
					case 0:
						rerr := p.Read(id, local)
						if errors.Is(rerr, ErrNoFrames) {
							continue
						}
						if rerr != nil {
							errCh <- rerr
							return
						}
						if local[0] != byte(id) {
							errCh <- fmt.Errorf("page %d read as %d", id, local[0])
							return
						}
					case 1:
						local[0] = byte(owned) // keep the invariant byte
						if err := p.Write(owned, local); err != nil {
							errCh <- err
							return
						}
					default:
						b, err := p.Pin(owned)
						if errors.Is(err, ErrNoFrames) {
							continue
						}
						if err != nil {
							errCh <- err
							return
						}
						if b[0] != byte(owned) {
							errCh <- fmt.Errorf("pinned page %d reads as %d", owned, b[0])
							p.Unpin(owned, false)
							return
						}
						if err := p.Unpin(owned, false); err != nil {
							errCh <- err
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
		// Every page still carries its id byte.
		for _, id := range ids {
			if got := readPage(t, p, id); got != byte(id) {
				t.Fatalf("page %d corrupted: %d", id, got)
			}
		}
	})
}

func TestStatsSnapshot(t *testing.T) {
	p, ids := newPool(t, 2, 3)
	for _, id := range ids {
		readPage(t, p, id)
	}
	readPage(t, p, ids[2])
	st := p.PoolStats()
	if st.Misses != 3 {
		t.Errorf("Misses = %d, want 3", st.Misses)
	}
	if st.Hits != 1 {
		t.Errorf("Hits = %d, want 1", st.Hits)
	}
	if st.HitRate() <= 0 || st.HitRate() >= 1 {
		t.Errorf("HitRate = %f", st.HitRate())
	}
	var agg Stats
	agg.Add(st)
	agg.Add(st)
	if agg.Misses != 6 || agg.Hits != 2 {
		t.Errorf("Add: %+v", agg)
	}
	calls := p.Stats()
	if calls.Reads != 4 {
		t.Errorf("caller-level Reads = %d, want 4", calls.Reads)
	}
}
