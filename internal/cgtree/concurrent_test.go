package cgtree

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/encoding"
	"repro/internal/pager"
)

// buildStressTree bulk-loads a CG-tree spanning many pages: 6 set
// partitions over 200 distinct keys.
func buildStressTree(t *testing.T, f pager.File) *Tree {
	t.Helper()
	tree, err := New(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	oid := encoding.OID(1)
	for k := 0; k < 200; k++ {
		key := []byte(fmt.Sprintf("val-%04d", k))
		for s := SetID(1); s <= 6; s++ {
			for r := 0; r < 1+int(s)%3; r++ {
				entries = append(entries, Entry{Set: s, Key: key, OID: oid})
				oid++
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Set != b.Set {
			return a.Set < b.Set
		}
		if c := string(a.Key); c != string(b.Key) {
			return c < string(b.Key)
		}
		return a.OID < b.OID
	})
	if err := tree.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	return tree
}

type cgQuery struct {
	lo, hi []byte
	sets   []SetID
}

func cgQueries() []cgQuery {
	return []cgQuery{
		{lo: []byte("val-0042"), hi: []byte("val-0042"), sets: []SetID{1, 2, 3, 4, 5, 6}},
		{lo: []byte("val-0100"), hi: []byte("val-0100"), sets: []SetID{2, 5}},
		{lo: []byte("val-0010"), hi: []byte("val-0030"), sets: []SetID{1, 3, 6}},
		{lo: []byte("val-0150"), hi: []byte("val-0199"), sets: []SetID{4}},
		{lo: []byte("val-0000"), hi: []byte("val-0005"), sets: []SetID{1, 2, 3, 4, 5, 6}},
	}
}

func runCGQuery(tree *Tree, q cgQuery, tr *pager.Tracker) ([]Result, Stats, error) {
	if string(q.lo) == string(q.hi) {
		return tree.ExactMatch(q.lo, q.sets, tr)
	}
	return tree.RangeQuery(q.lo, q.hi, q.sets, tr)
}

// TestConcurrentReaders runs the mixed exact/range workload from many
// goroutines (direct and pooled page file) with private trackers, checking
// every result set against the sequential baseline. Run under -race.
func TestConcurrentReaders(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		name := "direct"
		if pooled {
			name = "pooled"
		}
		t.Run(name, func(t *testing.T) {
			var f pager.File = pager.NewMemFile(0)
			if pooled {
				pool, err := bufferpool.New(f, bufferpool.Config{Pages: 16})
				if err != nil {
					t.Fatal(err)
				}
				defer pool.Close()
				f = pool
			}
			tree := buildStressTree(t, f)
			tree.DropCache()
			queries := cgQueries()
			want := make([][]Result, len(queries))
			for i, q := range queries {
				rs, _, err := runCGQuery(tree, q, nil)
				if err != nil {
					t.Fatalf("baseline %d: %v", i, err)
				}
				want[i] = rs
			}

			const goroutines = 10
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					tr := pager.NewTracker()
					for rep := 0; rep < 20; rep++ {
						i := (g + rep) % len(queries)
						rs, stats, err := runCGQuery(tree, queries[i], tr)
						if err != nil {
							t.Errorf("g%d query %d: %v", g, i, err)
							return
						}
						if len(rs) != len(want[i]) {
							t.Errorf("g%d query %d: %d results, want %d", g, i, len(rs), len(want[i]))
							return
						}
						for k := range rs {
							if rs[k] != want[i][k] {
								t.Errorf("g%d query %d result %d: %+v want %+v", g, i, k, rs[k], want[i][k])
								return
							}
						}
						if stats.Matches != len(want[i]) {
							t.Errorf("g%d query %d: stats.Matches=%d want %d", g, i, stats.Matches, len(want[i]))
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestConcurrentTrackerInvariance: merged per-goroutine distinct-page
// counts equal a sequential run under one shared tracker.
func TestConcurrentTrackerInvariance(t *testing.T) {
	tree := buildStressTree(t, pager.NewMemFile(0))
	tree.DropCache()
	queries := cgQueries()

	shared := pager.NewTracker()
	for _, q := range queries {
		if _, _, err := runCGQuery(tree, q, shared); err != nil {
			t.Fatal(err)
		}
	}

	per := make([]*pager.Tracker, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		per[i] = pager.NewTracker()
		wg.Add(1)
		go func(i int, q cgQuery) {
			defer wg.Done()
			if _, _, err := runCGQuery(tree, q, per[i]); err != nil {
				t.Error(err)
			}
		}(i, q)
	}
	wg.Wait()

	merged := pager.NewTracker()
	for _, tr := range per {
		merged.Merge(tr)
	}
	if merged.Reads() != shared.Reads() {
		t.Fatalf("merged concurrent pages %d != sequential shared pages %d",
			merged.Reads(), shared.Reads())
	}
}
