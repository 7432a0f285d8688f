package bufferpool

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pager"
)

// TestBatchRaceOverlappingReaders runs batched readers (Prefetch of a window,
// then Read of each page) and single-page readers over overlapping id
// windows, a prefetcher, and a writer churning a disjoint page set through
// Reclaimer frees and re-allocations — so frames are constantly reused
// between the two populations. Run with -race; the content checks catch any
// frame that is handed out stale.
func TestBatchRaceOverlappingReaders(t *testing.T) {
	mf := pager.NewMemFile(0)
	p, err := New(mf, Config{Pages: 64})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	pattern := func(id pager.PageID, buf []byte) {
		for j := range buf {
			buf[j] = byte(int(id)*41 + j)
		}
	}
	// Stable population: read-only for the whole test.
	stable := make([]pager.PageID, 64)
	buf := make([]byte, p.PageSize())
	for i := range stable {
		id, _ := p.Alloc()
		pattern(id, buf)
		if err := p.Write(id, buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		stable[i] = id
	}
	// Churn population: freed and re-allocated by the writer goroutine.
	churn := make([]pager.PageID, 32)
	for i := range churn {
		id, _ := p.Alloc()
		pattern(id, buf)
		if err := p.Write(id, buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		churn[i] = id
	}
	rec := NewReclaimer(p)

	const iters = 400
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	check := func(id pager.PageID, got []byte) bool {
		for j := range got {
			if got[j] != byte(int(id)*41+j) {
				t.Errorf("page %d: stale or corrupt contents at byte %d", id, j)
				return false
			}
		}
		return true
	}

	for g := 0; g < 2; g++ { // batched readers: prefetch a window, then read it
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			rb := make([]byte, p.PageSize())
			for i := 0; i < iters; i++ {
				lo := rng.Intn(len(stable) - 8)
				win := stable[lo : lo+8]
				p.Prefetch(win)
				for _, id := range win {
					if err := p.Read(id, rb); err != nil {
						errCh <- err
						return
					}
					if !check(id, rb) {
						return
					}
				}
			}
		}(int64(g))
	}
	for g := 0; g < 2; g++ { // single-page readers on the same windows
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			rb := make([]byte, p.PageSize())
			for i := 0; i < iters*4; i++ {
				id := stable[rng.Intn(len(stable))]
				if err := p.Read(id, rb); err != nil {
					errCh <- err
					return
				}
				if !check(id, rb) {
					return
				}
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() { // prefetcher over both populations
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < iters; i++ {
			lo := rng.Intn(len(stable) - 8)
			p.Prefetch(stable[lo : lo+8])
		}
	}()
	wg.Add(1)
	go func() { // writer: free/realloc the churn set through the Reclaimer
		defer wg.Done()
		wb := make([]byte, p.PageSize())
		epoch := uint64(1)
		for i := 0; i < iters; i++ {
			victim := churn[i%len(churn)]
			p.Prefetch([]pager.PageID{victim}) // make it a prefetched frame
			if err := rec.Commit(epoch, []pager.PageID{victim}, func() {}); err != nil {
				errCh <- err
				return
			}
			epoch++
			id, err := p.Alloc()
			if err != nil {
				errCh <- err
				return
			}
			pattern(id, wb)
			if err := p.Write(id, wb); err != nil {
				errCh <- err
				return
			}
			churn[i%len(churn)] = id
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("worker error: %v", err)
	default:
	}
	// After the churn, every page (stable and current churn ids) reads back
	// its own pattern — no resurrected stale frames anywhere.
	rb := make([]byte, p.PageSize())
	for _, id := range append(append([]pager.PageID(nil), stable...), churn...) {
		if err := p.Read(id, rb); err != nil {
			t.Fatalf("final read %d: %v", id, err)
		}
		check(id, rb)
	}
}

// TestPrefetchedThenFreedNeverResurrects is the deterministic half of the
// Reclaimer interaction: a page that was prefetched, then freed by a commit
// sweep, then re-allocated with new contents must serve the new contents —
// the prefetched frame is dropped at free time, never resurrected.
func TestPrefetchedThenFreedNeverResurrects(t *testing.T) {
	mf := pager.NewMemFile(0)
	p, err := New(mf, Config{Pages: 16})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	rec := NewReclaimer(p)
	id, _ := p.Alloc()
	old := make([]byte, p.PageSize())
	for j := range old {
		old[j] = 0x11
	}
	if err := p.Write(id, old); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	p.Prefetch([]pager.PageID{id})

	// A snapshot pinned at epoch 0 blocks the free; the frame must survive
	// until the unpin, then be dropped.
	pin := rec.Pin(func() uint64 { return 0 })
	if err := rec.Commit(1, []pager.PageID{id}, func() {}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	rb := make([]byte, p.PageSize())
	if err := p.Read(id, rb); err != nil { // still readable under the pin
		t.Fatalf("read under pin: %v", err)
	}
	if rb[0] != 0x11 {
		t.Fatalf("old contents wrong under pin")
	}
	if err := rec.Unpin(pin); err != nil {
		t.Fatalf("unpin: %v", err)
	}

	// The id recycles; new contents go in.
	id2, _ := p.Alloc()
	if id2 != id {
		t.Fatalf("expected MemFile to recycle page %d, got %d", id, id2)
	}
	fresh := make([]byte, p.PageSize())
	for j := range fresh {
		fresh[j] = 0x99
	}
	if err := p.Write(id2, fresh); err != nil {
		t.Fatalf("write new: %v", err)
	}
	if err := p.Read(id2, rb); err != nil {
		t.Fatalf("read new: %v", err)
	}
	if rb[0] != 0x99 {
		t.Fatalf("stale prefetched frame resurrected: got %#x, want 0x99", rb[0])
	}
}
