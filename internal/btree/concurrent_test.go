package btree

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/pager"
)

// buildConcurrentTree populates a tree with enough keys to span many pages.
func buildConcurrentTree(t *testing.T, f pager.File) *Tree {
	t.Helper()
	tree, err := Create(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i*7%3000))
		if err := tree.Insert(key, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

// TestConcurrentReaders runs mixed Get/Scan/MultiScan traffic from
// many goroutines, each with a private tracker, and checks every result
// against a sequential baseline. Run under -race this is the regression
// test for the goroutine-safe read path.
func TestConcurrentReaders(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		name := "direct"
		if pooled {
			name = "pooled"
		}
		t.Run(name, func(t *testing.T) {
			var f pager.File = pager.NewMemFile(0)
			if pooled {
				pool, err := bufferpool.New(f, bufferpool.Config{Pages: 32})
				if err != nil {
					t.Fatal(err)
				}
				defer pool.Close()
				f = pool
			}
			tree := buildConcurrentTree(t, f)
			// Reads must hit the page file under the read lock, not the
			// write path's shared cache, for this test to mean anything.
			tree.DropCache()

			// Sequential baselines.
			exactKey := []byte("key-001234")
			wantV, ok, err := tree.Get(exactKey, nil)
			if err != nil || !ok {
				t.Fatalf("baseline Get: %v ok=%v", err, ok)
			}
			var wantScan [][]byte
			err = tree.Scan(nil, []byte("key-001000"), []byte("key-001100"), nil,
				func(k, _ []byte) ([]byte, bool, error) {
					wantScan = append(wantScan, append([]byte(nil), k...))
					return nil, false, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			ivs := []Interval{
				{Lo: []byte("key-000100"), Hi: []byte("key-000200")},
				{Lo: []byte("key-002000"), Hi: []byte("key-002050")},
			}
			var wantMulti [][]byte
			err = tree.MultiScan(nil, ivs, nil, func(k, _ []byte) ([]byte, bool, error) {
				wantMulti = append(wantMulti, append([]byte(nil), k...))
				return nil, false, nil
			})
			if err != nil {
				t.Fatal(err)
			}

			const goroutines = 10
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					tr := pager.NewTracker()
					for rep := 0; rep < 20; rep++ {
						switch (g + rep) % 4 {
						case 0:
							v, ok, err := tree.Get(exactKey, tr)
							if err != nil || !ok || !bytes.Equal(v, wantV) {
								t.Errorf("g%d Get: err=%v ok=%v val=%q want %q", g, err, ok, v, wantV)
								return
							}
						case 1:
							var got [][]byte
							err := tree.Scan(nil, []byte("key-001000"), []byte("key-001100"), tr,
								func(k, _ []byte) ([]byte, bool, error) {
									got = append(got, append([]byte(nil), k...))
									return nil, false, nil
								})
							if err != nil || len(got) != len(wantScan) {
								t.Errorf("g%d Scan: err=%v got %d keys want %d", g, err, len(got), len(wantScan))
								return
							}
						case 2:
							var got [][]byte
							err := tree.MultiScan(nil, ivs, tr, func(k, _ []byte) ([]byte, bool, error) {
								got = append(got, append([]byte(nil), k...))
								return nil, false, nil
							})
							if err != nil || len(got) != len(wantMulti) {
								t.Errorf("g%d MultiScan: err=%v got %d keys want %d", g, err, len(got), len(wantMulti))
								return
							}
						case 3:
							// An open-ended forward read that stops itself
							// after 25 entries, values materialized.
							var last []byte
							n := 0
							err := tree.Scan(nil, []byte("key-000500"), nil, tr, func(k, v []byte) ([]byte, bool, error) {
								if v == nil {
									return nil, true, fmt.Errorf("no value for %q", k)
								}
								last = append(last[:0], k...)
								n++
								return nil, n == 25, nil
							})
							if err != nil || n != 25 || string(last) != "key-000524" {
								t.Errorf("g%d stopped Scan: err=%v n=%d last=%q", g, err, n, last)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestConcurrentTrackerCountsMatchSequential checks the accounting
// invariance end-to-end on a real tree: running a fixed query set
// concurrently with per-goroutine trackers and merging them reports exactly
// the distinct-page total of the same query set run sequentially under one
// shared tracker.
func TestConcurrentTrackerCountsMatchSequential(t *testing.T) {
	tree := buildConcurrentTree(t, pager.NewMemFile(0))
	tree.DropCache()
	queries := make([]Interval, 0, 16)
	for i := 0; i < 16; i++ {
		lo := []byte(fmt.Sprintf("key-%06d", i*180))
		hi := []byte(fmt.Sprintf("key-%06d", i*180+40))
		queries = append(queries, Interval{Lo: lo, Hi: hi})
	}
	scan := func(iv Interval, tr *pager.Tracker) error {
		return tree.Scan(nil, iv.Lo, iv.Hi, tr, func(_, _ []byte) ([]byte, bool, error) {
			return nil, false, nil
		})
	}

	shared := pager.NewTracker()
	for _, iv := range queries {
		if err := scan(iv, shared); err != nil {
			t.Fatal(err)
		}
	}

	per := make([]*pager.Tracker, len(queries))
	var wg sync.WaitGroup
	for i, iv := range queries {
		per[i] = pager.NewTracker()
		wg.Add(1)
		go func(i int, iv Interval) {
			defer wg.Done()
			if err := scan(iv, per[i]); err != nil {
				t.Error(err)
			}
		}(i, iv)
	}
	wg.Wait()

	merged := pager.NewTracker()
	for _, tr := range per {
		merged.Merge(tr)
	}
	if merged.Reads() != shared.Reads() {
		t.Fatalf("merged concurrent count %d != sequential shared count %d",
			merged.Reads(), shared.Reads())
	}
}

// TestSharedCachePopulation pins the shared decoded-node cache's population
// contract: DropCache empties it, and every read — point lookup or scan —
// installs the nodes it decoded for every later reader.
func TestSharedCachePopulation(t *testing.T) {
	tree := buildConcurrentTree(t, pager.NewMemFile(0))
	tree.DropCache()
	if got := tree.NodeCacheStats().Entries; got != 0 {
		t.Fatalf("cache not empty after DropCache: %d nodes", got)
	}
	if _, _, err := tree.Get([]byte("key-001234"), nil); err != nil {
		t.Fatal(err)
	}
	if got := tree.NodeCacheStats().Entries; got != tree.Height() {
		t.Fatalf("cold point lookup installed %d nodes, want its path of %d", got, tree.Height())
	}
	err := tree.Scan(nil, nil, nil, nil, func(_, _ []byte) ([]byte, bool, error) {
		return nil, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := tree.NodeCacheStats()
	if st.Entries == 0 {
		t.Fatal("full scan installed nothing into the shared cache")
	}
	// A repeat of the same scan must now be all hits, no decodes.
	tr := pager.NewTracker()
	err = tree.Scan(nil, nil, nil, tr, func(_, _ []byte) ([]byte, bool, error) {
		return nil, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.CacheMisses() != 0 || tr.CacheHits() == 0 {
		t.Fatalf("warm rescan: %d hits, %d misses; want all hits",
			tr.CacheHits(), tr.CacheMisses())
	}
}
