package btree

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/pager"
)

// noPrefetchFile hides the wrapped page file's batched read-ahead, so a
// tree over it never starts the frontier prefetcher: the reference side of
// TestPrefetchInvariance.
type noPrefetchFile struct{ pager.File }

// newPooledTree builds a tree whose page file is a buffer pool (the engine's
// deployment shape, and the one that enables frontier prefetch unless
// prefetch is false), loaded with n sequential keys.
func newPooledTree(t testing.TB, n int, prefetch bool) (*Tree, *bufferpool.Pool) {
	t.Helper()
	p, err := bufferpool.New(pager.NewMemFile(256), bufferpool.Config{Pages: 512})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	var f pager.File = p
	if !prefetch {
		f = noPrefetchFile{p}
	}
	tr, err := Create(f, Config{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	return tr, p
}

// scanIvs is a spread of intervals exercising descent into many disjoint
// subtrees — the Parscan shape frontier prefetch targets.
func scanIvs(n int) []Interval {
	var ivs []Interval
	for lo := 0; lo < n; lo += n / 10 {
		ivs = append(ivs, Interval{key(lo), key(lo + n/20)})
	}
	return ivs
}

// TestPrefetchInvariance runs the same multi-interval scan on two
// identically built trees — prefetch on and off — and requires identical
// results AND identical logical page counts (the paper's metric): prefetch
// must be invisible to everything but physical I/O timing.
func TestPrefetchInvariance(t *testing.T) {
	const n = 3000
	run := func(prefetch bool) ([]string, int, int, bufferpool.Stats) {
		tr, p := newPooledTree(t, n, prefetch)
		tr.DropCache() // cold node cache: the scan really fetches pages
		if err := p.Reset(); err != nil {
			t.Fatalf("pool reset: %v", err) // cold pool: prefetch does real reads
		}
		trk := pager.NewTracker()
		var got []string
		err := tr.MultiScanKeys(nil, scanIvs(n), trk, func(k, _ []byte) ([]byte, bool, error) {
			got = append(got, string(k))
			// Yield so the prefetcher goroutine interleaves with the walk
			// even on a single P over a MemFile (a real disk blocks here
			// on its own).
			runtime.Gosched()
			return nil, false, nil
		})
		if err != nil {
			t.Fatalf("MultiScanKeys: %v", err)
		}
		return got, trk.Reads(), trk.PrefetchIssued(), p.PoolStats()
	}

	onKeys, onReads, onIssued, onStats := run(true)
	offKeys, offReads, offIssued, _ := run(false)

	if len(onKeys) == 0 {
		t.Fatalf("scan returned nothing")
	}
	if len(onKeys) != len(offKeys) {
		t.Fatalf("result size differs: prefetch on %d, off %d", len(onKeys), len(offKeys))
	}
	for i := range onKeys {
		if onKeys[i] != offKeys[i] {
			t.Fatalf("result[%d] differs: %q vs %q", i, onKeys[i], offKeys[i])
		}
	}
	if onReads != offReads {
		t.Fatalf("logical page reads differ: prefetch on %d, off %d", onReads, offReads)
	}
	if onIssued == 0 {
		t.Fatalf("prefetch enabled but no pages were handed to the prefetcher")
	}
	if offIssued != 0 {
		t.Fatalf("tree without read-ahead still issued %d pages", offIssued)
	}
	if onStats.PrefetchPages == 0 {
		t.Fatalf("pool saw no prefetched pages (PrefetchPages = 0)")
	}
}

// TestPrefetchFrontierMatchesWalk checks the frontier simulation against
// the walk itself: with a cold node cache, every page the prefetcher was
// handed at one level must be visited by the descent — the static frontier
// (no skip requests) over-approximates nothing.
func TestPrefetchFrontierMatchesWalk(t *testing.T) {
	const n = 2000
	tr, _ := newPooledTree(t, n, true)
	withoutNodeCache(tr) // cache off: frontier is unfiltered
	issued := make(map[pager.PageID]bool)
	visited := make(map[pager.PageID]bool)

	v, release := tr.pin()
	defer func() {
		if release != nil {
			release()
		}
	}()
	s := &multiScan{op: &readOp{t: tr}, ivs: NormalizeIntervals(scanIvs(n)), keysOnly: true,
		fn: func(k, _ []byte) ([]byte, bool, error) { return nil, false, nil }}
	// A synchronous stand-in for the prefetcher goroutine records each batch
	// (first-level frontiers only — the deep extension is exercised by the
	// real goroutine in TestPrefetchInvariance).
	s.pfCh = make(chan pfBatch, 1)
	s.pfDone = make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(s.pfDone)
		for batch := range s.pfCh {
			for _, id := range batch.ids {
				issued[id] = true
			}
		}
	}()
	// Track visits through the tracker's Touch.
	trk := pager.NewTracker()
	s.tr = trk
	if _, err := s.walk(v.root); err != nil {
		t.Fatalf("walk: %v", err)
	}
	s.stopPrefetcher()
	wg.Wait()
	for id := pager.PageID(0); int(id) < 100000; id++ {
		if trk.Touched(id) {
			visited[id] = true
		}
	}
	if len(issued) == 0 {
		t.Fatalf("no frontier batches issued")
	}
	for id := range issued {
		if !visited[id] {
			t.Fatalf("prefetched page %d was never visited by the walk", id)
		}
	}
}

// TestPrefetchConcurrentWithWrites races prefetching scans against a writer
// committing inserts (which retires and frees pages through the Reclaimer).
// Run with -race; the scans verify their own results.
func TestPrefetchConcurrentWithWrites(t *testing.T) {
	const n = 1500
	tr, _ := newPooledTree(t, n, true)
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				prev := ""
				err := tr.MultiScanKeys(nil, scanIvs(n), nil, func(k, _ []byte) ([]byte, bool, error) {
					if s := string(k); s <= prev {
						return nil, true, fmt.Errorf("out-of-order key %q after %q", s, prev)
					} else {
						prev = s
					}
					return nil, false, nil
				})
				if err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		if err := tr.Insert(key(n+i), val(n+i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("scan error under concurrent writes: %v", err)
	default:
	}
}
