package bufferpool

import (
	"errors"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/pager"
)

// newBatchPool builds a pool of the given capacity over a MemFile with n
// distinct-content pages; it returns the pool, the raw file, and the ids.
func newBatchPool(t testing.TB, frames, n int) (*Pool, *pager.MemFile, []pager.PageID) {
	t.Helper()
	mf := pager.NewMemFile(0)
	ids := make([]pager.PageID, n)
	buf := make([]byte, mf.PageSize())
	for i := range ids {
		id, err := mf.Alloc()
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		for j := range buf {
			buf[j] = byte(int(id)*37 + j)
		}
		if err := mf.Write(id, buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		ids[i] = id
	}
	p, err := New(mf, Config{Pages: frames})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	return p, mf, ids
}

func wantPage(t *testing.T, size int, id pager.PageID, got []byte) {
	t.Helper()
	for j := 0; j < size; j++ {
		if got[j] != byte(int(id)*37+j) {
			t.Fatalf("page %d: byte %d = %#x, want %#x", id, j, got[j], byte(int(id)*37+j))
		}
	}
}

// TestPrefetchFaultIsolation drives an injected sub-read failure through a
// prefetch: the chunk's other pages are installed with correct contents,
// and the failed page is NOT left resident — the synchronous Read that
// follows goes to the file, where a fault surfaces as its error, and a
// later read retries and succeeds. A closed pool prefetches nothing.
func TestPrefetchFaultIsolation(t *testing.T) {
	mf := pager.NewMemFile(0)
	ids := make([]pager.PageID, 8)
	buf := make([]byte, mf.PageSize())
	for i := range ids {
		id, _ := mf.Alloc()
		for j := range buf {
			buf[j] = byte(int(id)*37 + j)
		}
		if err := mf.Write(id, buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		ids[i] = id
	}
	ff := faultfs.Wrap(mf)
	p, err := New(ff, Config{Pages: 16})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	ff.FailNth(faultfs.OpRead, 3, nil) // third sub-read of the batch fails
	if n := p.Prefetch(ids); n != len(ids)-1 {
		t.Fatalf("Prefetch loaded %d, want %d", n, len(ids)-1)
	}
	const failed = 2
	physBefore := mf.Stats().Reads
	for i, id := range ids {
		if i == failed {
			continue
		}
		if err := p.Read(id, buf); err != nil {
			t.Fatalf("read %d: %v", id, err)
		}
		wantPage(t, p.PageSize(), id, buf) // siblings not poisoned
	}
	if got := mf.Stats().Reads - physBefore; got != 0 {
		t.Fatalf("sibling reads hit the backing file %d times", got)
	}
	// The failed page never became resident: its read reaches the file.
	ff.FailNth(faultfs.OpRead, 1, nil)
	if err := p.Read(ids[failed], buf); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("read of the failed page: got %v, want ErrInjected", err)
	}
	if err := p.Read(ids[failed], buf); err != nil {
		t.Fatalf("retry read: %v", err)
	}
	wantPage(t, p.PageSize(), ids[failed], buf)
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := p.Prefetch(ids); n != 0 {
		t.Fatalf("Prefetch on closed pool loaded %d", n)
	}
}

func TestPrefetchLoadsWithoutPinning(t *testing.T) {
	p, mf, ids := newBatchPool(t, 64, 30)
	if n := p.Prefetch(ids); n != 30 {
		t.Fatalf("Prefetch loaded %d, want 30", n)
	}
	st := p.PoolStats()
	if st.PrefetchPages != 30 || st.BatchReads == 0 {
		t.Fatalf("prefetch stats: pages=%d batchReads=%d", st.PrefetchPages, st.BatchReads)
	}
	if st.Hits != 0 && st.Misses != 0 {
		t.Fatalf("prefetch counted as page requests: hits=%d misses=%d", st.Hits, st.Misses)
	}
	// Re-prefetching resident pages is a no-op.
	if n := p.Prefetch(ids); n != 0 {
		t.Fatalf("re-Prefetch loaded %d, want 0", n)
	}
	// Reads served from prefetched frames: prefetch hits, no physical I/O.
	physBefore := mf.Stats().Reads
	buf := make([]byte, p.PageSize())
	for _, id := range ids[:20] {
		if err := p.Read(id, buf); err != nil {
			t.Fatalf("read: %v", err)
		}
		wantPage(t, p.PageSize(), id, buf)
	}
	if got := mf.Stats().Reads - physBefore; got != 0 {
		t.Fatalf("reads after prefetch hit the backing file %d times", got)
	}
	st = p.PoolStats()
	if st.PrefetchHits != 20 {
		t.Fatalf("PrefetchHits = %d, want 20", st.PrefetchHits)
	}
	// Reset drops the remaining 10 untouched prefetched frames as wasted.
	if err := p.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	st = p.PoolStats()
	if st.PrefetchWasted != 10 {
		t.Fatalf("PrefetchWasted = %d, want 10", st.PrefetchWasted)
	}
}

func TestPrefetchErrorsAreSwallowed(t *testing.T) {
	p, _, ids := newBatchPool(t, 16, 4)
	bogus := append([]pager.PageID{pager.PageID(9999)}, ids...)
	if n := p.Prefetch(bogus); n != 4 {
		t.Fatalf("Prefetch loaded %d, want 4 (bogus page skipped)", n)
	}
	buf := make([]byte, p.PageSize())
	for _, id := range ids {
		if err := p.Read(id, buf); err != nil {
			t.Fatalf("read after partial prefetch: %v", err)
		}
	}
}

func TestResetDropsUnpinnedKeepsPinned(t *testing.T) {
	p, mf, ids := newBatchPool(t, 32, 10)
	pinned, err := p.Pin(ids[0])
	if err != nil {
		t.Fatalf("pin: %v", err)
	}
	buf := make([]byte, p.PageSize())
	for _, id := range ids[1:] {
		if err := p.Read(id, buf); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	// Dirty one page through the pool; Reset must flush it, not lose it.
	dirty := make([]byte, p.PageSize())
	for j := range dirty {
		dirty[j] = 0xAB
	}
	if err := p.Write(ids[5], dirty); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := p.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	// Unpinned pages are gone: the next read is physical.
	phys := mf.Stats().Reads
	if err := p.Read(ids[1], buf); err != nil {
		t.Fatalf("read after reset: %v", err)
	}
	if mf.Stats().Reads != phys+1 {
		t.Fatalf("read after reset did not hit the backing file")
	}
	// The flushed write round-tripped.
	if err := mf.Read(ids[5], buf); err != nil {
		t.Fatalf("backing read: %v", err)
	}
	for j := range buf {
		if buf[j] != 0xAB {
			t.Fatalf("dirty page lost by Reset")
		}
	}
	// The pinned frame survived with its contents.
	wantPage(t, p.PageSize(), ids[0], pinned)
	if err := p.Unpin(ids[0], false); err != nil {
		t.Fatalf("unpin: %v", err)
	}
}
