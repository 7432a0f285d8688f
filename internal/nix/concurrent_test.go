package nix

import (
	"sync"
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/encoding"
	"repro/internal/pager"
	"repro/internal/store"
)

// buildStressIndex creates the Example-1 age index, optionally behind a
// buffer pool.
func buildStressIndex(t *testing.T, f *fixture, pooled bool) *Index {
	t.Helper()
	var pf pager.File = pager.NewMemFile(0)
	if pooled {
		pool, err := bufferpool.New(pf, bufferpool.Config{Pages: 16})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		pf = pool
	}
	ix, err := New(pf, f.st, Spec{
		Name: "nix-age", Root: "Vehicle", Refs: []string{"ManufacturedBy", "President"}, Attr: "Age"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	ix.DropCache()
	return ix
}

// nixQuery covers exact, range, and restricted lookups.
type nixQuery struct {
	kind     string // "exact", "range", "restricted"
	v, hi    any
	class    string
	restrict string
	allowed  []store.OID
}

func nixQueries(f *fixture) []nixQuery {
	return []nixQuery{
		{kind: "exact", v: 50, class: "Vehicle"},
		{kind: "exact", v: 50, class: "Company"},
		{kind: "exact", v: 45, class: "CompactAutomobile"},
		{kind: "exact", v: 60, class: "Employee"},
		{kind: "range", v: 46, hi: 200, class: "Vehicle"},
		{kind: "range", v: 40, hi: 55, class: "Automobile"},
		{kind: "restricted", v: 50, class: "Vehicle", restrict: "Company", allowed: []store.OID{f.c2}},
		{kind: "restricted", v: 45, class: "Vehicle", restrict: "Company", allowed: []store.OID{f.c1, f.c3}},
	}
}

func runNixQuery(ix *Index, q nixQuery, tr *pager.Tracker) ([]encoding.OID, Stats, error) {
	switch q.kind {
	case "range":
		return ix.LookupRange(q.v, q.hi, q.class, tr)
	case "restricted":
		return ix.LookupRestricted(q.v, q.class, q.restrict, q.allowed, tr)
	default:
		return ix.Lookup(q.v, q.class, tr)
	}
}

// TestConcurrentReaders runs mixed exact/range/restricted lookups from many
// goroutines (direct and pooled page file) with private trackers, checking
// every result against the sequential baseline. Run under -race.
func TestConcurrentReaders(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		name := "direct"
		if pooled {
			name = "pooled"
		}
		t.Run(name, func(t *testing.T) {
			f := newFixture(t)
			ix := buildStressIndex(t, f, pooled)
			queries := nixQueries(f)
			want := make([][]encoding.OID, len(queries))
			for i, q := range queries {
				oids, _, err := runNixQuery(ix, q, nil)
				if err != nil {
					t.Fatalf("baseline %d: %v", i, err)
				}
				want[i] = oids
			}

			const goroutines = 10
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					tr := pager.NewTracker()
					for rep := 0; rep < 25; rep++ {
						i := (g + rep) % len(queries)
						oids, stats, err := runNixQuery(ix, queries[i], tr)
						if err != nil {
							t.Errorf("g%d query %d: %v", g, i, err)
							return
						}
						if len(oids) != len(want[i]) {
							t.Errorf("g%d query %d: %d oids, want %d", g, i, len(oids), len(want[i]))
							return
						}
						for k := range oids {
							if oids[k] != want[i][k] {
								t.Errorf("g%d query %d oid %d: %v want %v", g, i, k, oids[k], want[i][k])
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
	f := newFixture(t)
	ix := buildStressIndex(t, f, false)
	queries := nixQueries(f)

	shared := pager.NewTracker()
	for _, q := range queries {
		if _, _, err := runNixQuery(ix, q, shared); err != nil {
			t.Fatal(err)
		}
	}

	per := make([]*pager.Tracker, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		per[i] = pager.NewTracker()
		wg.Add(1)
		go func(i int, q nixQuery) {
			defer wg.Done()
			if _, _, err := runNixQuery(ix, q, per[i]); err != nil {
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
