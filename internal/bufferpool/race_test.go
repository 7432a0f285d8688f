package bufferpool

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/pager"
)

// TestStatsRaceWithEvictions is the regression test for the Stats data race:
// PoolStats snapshots must be safe to take concurrently with page traffic
// that is actively evicting frames. Run under -race this fails loudly if any
// counter read races an increment. The pool is deliberately tiny relative to
// the page set so every reader loop drives constant evictions.
func TestStatsRaceWithEvictions(t *testing.T) {
	const (
		pages   = 64
		frames  = 8 // one per reader: a Read pins a frame, and a pool with fewer frames than concurrent pins fails with "all frames pinned"
		readers = 8
		rounds  = 200
	)
	inner := pager.NewMemFile(0)
	ids := make([]pager.PageID, pages)
	buf := make([]byte, inner.PageSize())
	for i := range ids {
		id, err := inner.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(buf, uint32(id))
		if err := inner.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	p, err := New(inner, Config{Pages: frames})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			b := make([]byte, p.PageSize())
			for i := 0; i < rounds; i++ {
				id := ids[(seed*31+i*7)%len(ids)]
				if err := p.Read(id, b); err != nil {
					t.Errorf("Read(%d): %v", id, err)
					return
				}
				if got := pager.PageID(binary.BigEndian.Uint32(b)); got != id {
					t.Errorf("page %d returned content of page %d", id, got)
					return
				}
				if i%3 == 0 {
					binary.BigEndian.PutUint32(b, uint32(id))
					if err := p.Write(id, b); err != nil {
						t.Errorf("Write(%d): %v", id, err)
						return
					}
				}
			}
		}(r)
	}
	// Stats readers run concurrently with the eviction-heavy traffic above.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*readers; i++ {
				st := p.PoolStats()
				if st.Hits < 0 || st.Misses < 0 || st.Evictions < 0 {
					t.Errorf("negative counter in snapshot: %+v", st)
					return
				}
			}
		}()
	}
	wg.Wait()

	st := p.PoolStats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no page traffic recorded")
	}
	if st.Evictions == 0 {
		t.Fatalf("expected evictions with %d frames over %d pages: %+v", frames, pages, st)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPinUnpin exercises the per-frame latch path: goroutines pin
// the same small page set, hold the returned buffers, and unpin, while
// others read through the File interface.
func TestConcurrentPinUnpin(t *testing.T) {
	inner := pager.NewMemFile(0)
	var ids []pager.PageID
	buf := make([]byte, inner.PageSize())
	for i := 0; i < 8; i++ {
		id, err := inner.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(buf, uint32(id))
		if err := inner.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	p, err := New(inner, Config{Pages: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			b := make([]byte, p.PageSize())
			for i := 0; i < 100; i++ {
				id := ids[(seed+i)%len(ids)]
				if seed%2 == 0 {
					fb, err := p.Pin(id)
					if err != nil {
						t.Errorf("Pin(%d): %v", id, err)
						return
					}
					if got := pager.PageID(binary.BigEndian.Uint32(fb)); got != id {
						t.Errorf("pinned page %d holds content of %d", id, got)
					}
					if err := p.Unpin(id, false); err != nil {
						t.Errorf("Unpin(%d): %v", id, err)
						return
					}
				} else if err := p.Read(id, b); err != nil {
					t.Errorf("Read(%d): %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
