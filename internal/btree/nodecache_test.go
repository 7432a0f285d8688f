package btree

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pager"
)

// withoutNodeCache turns t's shared decoded-node cache off, so every fetch
// decodes its page: the reference side of the checks that the cache changes
// no answer and no count. Call it before the tree is shared.
func withoutNodeCache(t *Tree) *Tree {
	t.ncache = nil
	t.rec.SetReleaseHook(nil)
	return t
}

// TestNodeCacheInvariance runs Get, Scan and MultiScanKeys on a cached tree
// and on an identical cache-off tree: results, logical page reads and the
// sets of pages touched must agree exactly — pages are counted before any
// cache is consulted. A cold Get installs its path, so repeating it decodes
// nothing.
func TestNodeCacheInvariance(t *testing.T) {
	build := func() *Tree {
		tree, err := Create(pager.NewMemFile(0), Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			if err := tree.Insert(key(i*7%3000), val(i*7%3000)); err != nil {
				t.Fatal(err)
			}
		}
		return tree
	}
	cached, plain := build(), withoutNodeCache(build())
	cached.DropCache()

	// A read runs one query on tree, counted by tr, and returns its answer.
	type read func(tree *Tree, tr *pager.Tracker) ([]string, error)
	collect := func(out *[]string) func(k, v []byte) ([]byte, bool, error) {
		return func(k, v []byte) ([]byte, bool, error) {
			*out = append(*out, string(k)+"="+string(v))
			return nil, false, nil
		}
	}
	get := func(i int) read {
		return func(tree *Tree, tr *pager.Tracker) ([]string, error) {
			v, ok, err := tree.Get(key(i), tr)
			return []string{fmt.Sprint(string(v), ok)}, err
		}
	}
	scan := func(lo, hi int) read {
		return func(tree *Tree, tr *pager.Tracker) (out []string, err error) {
			return out, tree.Scan(nil, key(lo), key(hi), tr, collect(&out))
		}
	}
	multi := func(tree *Tree, tr *pager.Tracker) (out []string, err error) {
		ivs := []Interval{{Lo: key(10), Hi: key(40)}, {Lo: key(900), Hi: key(905)}, {Lo: key(2500), Hi: nil}}
		return out, tree.MultiScanKeys(nil, ivs, tr, collect(&out))
	}
	reads := []struct {
		name string
		fn   read
	}{
		{"Get-cold", get(1234)}, {"Get-warm", get(1234)}, {"Get-absent", get(4000)},
		{"Scan", scan(200, 1700)}, {"Scan-repeat", scan(200, 1700)}, {"MultiScanKeys", multi},
	}
	for _, rd := range reads {
		ctr, ptr := pager.NewTracker(), pager.NewTracker()
		cgot, err := rd.fn(cached, ctr)
		if err != nil {
			t.Fatal(err)
		}
		pgot, err := rd.fn(plain, ptr)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(cgot) != fmt.Sprint(pgot) || len(cgot) == 0 {
			t.Fatalf("%s: cached tree answered %d entries, cache-off tree %d (or they differ)", rd.name, len(cgot), len(pgot))
		}
		if ctr.Reads() != ptr.Reads() || ctr.Reads() == 0 {
			t.Fatalf("%s: cached tree read %d pages, cache-off tree %d", rd.name, ctr.Reads(), ptr.Reads())
		}
		for id := pager.PageID(0); int(id) < 20000; id++ {
			if ctr.Touched(id) != ptr.Touched(id) {
				t.Fatalf("%s: page %d touched by one tree only", rd.name, id)
			}
		}
		if ptr.CacheHits() != 0 {
			t.Fatalf("%s: cache-off tree reported %d cache hits", rd.name, ptr.CacheHits())
		}
		switch rd.name {
		case "Get-cold":
			if ctr.CacheMisses() != cached.Height() {
				t.Fatalf("cold Get: %d misses, want one per level (%d)", ctr.CacheMisses(), cached.Height())
			}
		case "Get-warm", "Scan-repeat":
			if ctr.CacheMisses() != 0 {
				t.Fatalf("%s: %d misses after the same read installed its nodes", rd.name, ctr.CacheMisses())
			}
		}
	}
}

// TestReadVisitsEachPageOnce pins the invariant that lets a read keep no
// private map of the nodes it has seen: Get, Scan and MultiScan (with skip
// requests) fetch every page they count exactly once, so the node-cache
// probes (hits + misses) equal the distinct pages read — on a cached tree
// and on a cache-off tree alike.
func TestReadVisitsEachPageOnce(t *testing.T) {
	build := func() *Tree {
		tree, err := Create(pager.NewMemFile(0), Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			if err := tree.Insert(key(i*7%3000), val(i*7%3000)); err != nil {
				t.Fatal(err)
			}
		}
		return tree
	}
	// skipEvery jumps 50 keys ahead after each match: the skip crosses
	// leaves and whole subtrees.
	skipEvery := func(k, _ []byte) ([]byte, bool, error) {
		var i int
		if _, err := fmt.Sscanf(string(k), "key-%d", &i); err != nil {
			return nil, true, err
		}
		return key(i + 50), false, nil
	}
	all := func(_, _ []byte) ([]byte, bool, error) { return nil, false, nil }
	reads := []struct {
		name string
		fn   func(tree *Tree, tr *pager.Tracker) error
	}{
		{"Get", func(tree *Tree, tr *pager.Tracker) error {
			_, _, err := tree.Get(key(1234), tr)
			return err
		}},
		{"Scan", func(tree *Tree, tr *pager.Tracker) error {
			return tree.Scan(nil, key(200), key(1700), tr, all)
		}},
		{"Scan-all", func(tree *Tree, tr *pager.Tracker) error {
			return tree.Scan(nil, nil, nil, tr, all)
		}},
		{"MultiScan-skip", func(tree *Tree, tr *pager.Tracker) error {
			ivs := []Interval{{Lo: key(10), Hi: key(400)}, {Lo: key(900), Hi: key(905)}, {Lo: key(1500), Hi: nil}}
			return tree.MultiScan(nil, ivs, tr, skipEvery)
		}},
	}
	for _, tree := range []*Tree{build(), withoutNodeCache(build())} {
		tree.DropCache()
		for _, rd := range reads {
			for pass := 0; pass < 2; pass++ { // cold, then warm
				tr := pager.NewTracker()
				if err := rd.fn(tree, tr); err != nil {
					t.Fatalf("%s: %v", rd.name, err)
				}
				if probes := tr.CacheHits() + tr.CacheMisses(); probes != tr.Reads() || probes == 0 {
					t.Fatalf("%s pass %d: %d node fetches for %d distinct pages", rd.name, pass, probes, tr.Reads())
				}
			}
		}
	}
}

// TestNodeCacheCoherenceRace is the cache-coherence stress test: one tree
// with the shared decoded-node cache enabled takes concurrent writer
// traffic while snapshot readers scan and re-probe their pinned versions —
// snapshots held across commits force the epoch reclaimer to free retired
// pages (firing the cache's release hook) mid-run. A second tree with the
// cache disabled receives the identical mutation schedule; the two must
// end byte-identical. Run under -race via `make stress`.
func TestNodeCacheCoherenceRace(t *testing.T) {
	cached, err := Create(pager.NewMemFile(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Create(pager.NewMemFile(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	withoutNodeCache(plain)
	genVal := func(gen, i int) []byte {
		return []byte(fmt.Sprintf("g%04d:%s", gen, key(i)))
	}
	const keys = 800
	for i := 0; i < keys; i++ {
		for _, tr := range []*Tree{cached, plain} {
			if err := tr.Insert(key(i), genVal(0, i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var done atomic.Bool
	var wg sync.WaitGroup

	// Writer: rewrite rotating slices of the key space in generations, and
	// delete/reinsert a band so pages actually retire and get freed. The
	// identical schedule goes to both trees.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for gen := 1; gen <= 12; gen++ {
			lo := (gen * 97) % keys
			for i := lo; i < lo+200; i++ {
				k := i % keys
				for _, tr := range []*Tree{cached, plain} {
					if err := tr.Insert(key(k), genVal(gen, k)); err != nil {
						t.Error(err)
						return
					}
				}
			}
			for i := lo; i < lo+40; i++ {
				k := i % keys
				for _, tr := range []*Tree{cached, plain} {
					if _, err := tr.Delete(key(k)); err != nil {
						t.Error(err)
						return
					}
					if err := tr.Insert(key(k), genVal(gen, k)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}
	}()

	// Snapshot readers on the cached tree: each pins a version, scans it,
	// and asserts (a) every value belongs to its key, and (b) point
	// lookups inside the same snapshot reproduce the scanned values — a
	// stale cache node served after its page was freed and reused breaks
	// one of these.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; !done.Load(); round++ {
				snap := cached.Snapshot()
				type kv struct{ k, v []byte }
				var got []kv
				err := snap.MultiScan(nil, []Interval{{}}, nil, func(k, v []byte) ([]byte, bool, error) {
					got = append(got, kv{append([]byte(nil), k...), append([]byte(nil), v...)})
					return nil, false, nil
				})
				if err != nil {
					t.Error(err)
					snap.Release()
					return
				}
				for i, e := range got {
					if i > 0 && bytes.Compare(got[i-1].k, e.k) >= 0 {
						t.Errorf("g%d: scan out of order at %d", g, i)
						snap.Release()
						return
					}
					if !bytes.HasSuffix(e.v, e.k) {
						t.Errorf("g%d: value %q does not belong to key %q", g, e.v, e.k)
						snap.Release()
						return
					}
				}
				for i := g; i < len(got); i += 37 {
					v, ok, err := snap.Get(got[i].k, nil)
					if err != nil || !ok || !bytes.Equal(v, got[i].v) {
						t.Errorf("g%d: snapshot Get(%q) = %q, %v, %v; scan saw %q",
							g, got[i].k, v, ok, err, got[i].v)
						snap.Release()
						return
					}
				}
				if err := snap.Release(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// The cached tree and the cache-disabled tree saw the same schedule:
	// they must agree exactly, and both must pass structural checks.
	collect := func(tr *Tree) map[string]string {
		m := map[string]string{}
		err := tr.Scan(nil, nil, nil, nil, func(k, v []byte) ([]byte, bool, error) {
			m[string(k)] = string(v)
			return nil, false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := collect(cached), collect(plain)
	if len(a) != len(b) {
		t.Fatalf("cached tree has %d keys, cache-disabled %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("divergence at %q: cached %q vs cache-disabled %q", k, v, b[k])
		}
	}
	if err := cached.Check(); err != nil {
		t.Fatal(err)
	}
	if err := plain.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeCacheExactMatchAllocs pins what the node cache buys: with the
// cache warm, a repeated exact-match lookup must allocate at most half of
// what the cache-disabled path allocates — both for the point lookup and
// for the exact-match interval scan the query executor issues.
func TestNodeCacheExactMatchAllocs(t *testing.T) {
	build := func(cache bool) *Tree {
		tree, err := Create(pager.NewMemFile(0), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !cache {
			withoutNodeCache(tree)
		}
		for i := 0; i < 3000; i++ {
			if err := tree.Insert(key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		tree.DropCache()
		// Warm the shared cache (a no-op on the disabled tree).
		err = tree.Scan(nil, nil, nil, nil, func(_, _ []byte) ([]byte, bool, error) {
			return nil, false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	cached := build(true)
	plain := build(false)
	probe := key(2345)

	measureGet := func(tree *Tree) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, ok, err := tree.Get(probe, nil); err != nil || !ok {
				t.Fatalf("Get: %v ok=%v", err, ok)
			}
		})
	}
	measureExactScan := func(tree *Tree) float64 {
		ivs := []Interval{{Lo: probe, Hi: append(append([]byte(nil), probe...), 0)}} // Hi exclusive
		return testing.AllocsPerRun(200, func() {
			n := 0
			err := tree.MultiScan(nil, ivs, nil, func(_, _ []byte) ([]byte, bool, error) {
				n++
				return nil, false, nil
			})
			if err != nil || n != 1 {
				t.Fatalf("MultiScan: %v matches=%d", err, n)
			}
		})
	}
	for _, tc := range []struct {
		name       string
		warm, cold float64
	}{
		{"Get", measureGet(cached), measureGet(plain)},
		{"ExactMultiScan", measureExactScan(cached), measureExactScan(plain)},
	} {
		t.Logf("%s: warm cache %.1f allocs/op, cache disabled %.1f allocs/op", tc.name, tc.warm, tc.cold)
		if tc.warm*2 > tc.cold {
			t.Errorf("%s: warm-cache allocs %.1f not at least 2x below cache-disabled %.1f",
				tc.name, tc.warm, tc.cold)
		}
	}
}
