package pager

// Tracker counts the distinct pages touched by a single query. The paper's
// experiments report "number of pages read" per query under the assumption
// that a page fetched once stays in the buffer for the remainder of that
// query ("... and continue the search from there on in parallel, utilizing
// any page which is already in memory", Section 3.3). Every index structure
// in this repository routes node fetches through a Tracker so that the
// reported counts share that model.
//
// A nil *Tracker is valid everywhere and counts nothing, so read paths that
// do not care about accounting can pass nil.
//
// A Tracker is NOT safe for concurrent use: it is per-query state. The
// concurrency contract of the engine is one Tracker per goroutine (a core
// query without a caller's tracker takes one from a pool and Resets it
// afterwards); per-goroutine trackers are
// combined afterwards with Merge, which deduplicates pages the goroutines
// touched in common, so experiment-level "distinct pages read" totals are
// identical whether the queries ran sequentially under one shared tracker
// or concurrently under private ones.
//
// A structure spread over several page files (a sharded index) accounts
// each file on a child tracker of its own (see Child), since page ids of
// different files are unrelated. Reads, the CPU-cost counters, Merge and
// Reset all cover the children, so one caller-held tracker keeps the
// cumulative buffered-experiment count whatever the file count.
type Tracker struct {
	seen  map[PageID]struct{}
	reads int
	// CPU-cost counters of the zero-copy read path: how often a node
	// fetch was served by a decoded-node cache vs. had to decode page
	// bytes, and how many entry bytes those decodes materialized. They
	// are deliberately separate from the logical page counts above —
	// Touch is always called before any cache is consulted, so the
	// paper's page-read metric is identical whatever these report.
	cacheHits    int
	cacheMisses  int
	bytesDecoded int64
	// prefetchIssued counts pages this query's scans handed to the
	// background prefetcher. Like the cache counters it never feeds the
	// logical page counts: prefetching a page does not Touch it.
	prefetchIssued int
	children       []*Tracker
}

// NewTracker returns an empty tracker. Its page set is allocated on the first
// Touch, so a tracker that only parents per-file children never allocates
// one.
func NewTracker() *Tracker {
	return &Tracker{}
}

// Touch records a page access. It returns true when the page had not been
// touched before by this tracker (i.e. the access counts as a page read).
func (t *Tracker) Touch(id PageID) bool {
	if t == nil {
		return false
	}
	if _, ok := t.seen[id]; ok {
		return false
	}
	if t.seen == nil {
		t.seen = make(map[PageID]struct{})
	}
	t.seen[id] = struct{}{}
	t.reads++
	return true
}

// Child returns the tracker that accounts file i of an n-file structure,
// allocating it on first use. n <= 1 is the single-file case and returns t
// itself, so a one-file structure counts exactly as it would on t. Child
// grows t, so a concurrent reader must obtain its child before the
// goroutines start; each child then belongs to one goroutine.
func (t *Tracker) Child(i, n int) *Tracker {
	if t == nil || n <= 1 {
		return t
	}
	if len(t.children) < n {
		t.children = append(t.children, make([]*Tracker, n-len(t.children))...)
	}
	if t.children[i] == nil {
		t.children[i] = NewTracker()
	}
	return t.children[i]
}

// Touched reports whether the page has been counted already.
func (t *Tracker) Touched(id PageID) bool {
	if t == nil {
		return false
	}
	_, ok := t.seen[id]
	return ok
}

// Reads returns the number of distinct pages touched so far.
func (t *Tracker) Reads() int {
	if t == nil {
		return 0
	}
	n := t.reads
	for _, c := range t.children {
		n += c.Reads()
	}
	return n
}

// NoteNodeCache records the outcome of one decoded-node cache probe: a hit
// cost nothing, a miss decoded the page's whole entry area of bytesDecoded
// bytes.
func (t *Tracker) NoteNodeCache(hit bool, bytesDecoded int) {
	if t == nil {
		return
	}
	if hit {
		t.cacheHits++
		return
	}
	t.cacheMisses++
	t.bytesDecoded += int64(bytesDecoded)
}

// CacheHits returns the number of node fetches served from a decoded-node
// cache.
func (t *Tracker) CacheHits() int {
	if t == nil {
		return 0
	}
	n := t.cacheHits
	for _, c := range t.children {
		n += c.CacheHits()
	}
	return n
}

// CacheMisses returns the number of node fetches that had to decode page
// bytes.
func (t *Tracker) CacheMisses() int {
	if t == nil {
		return 0
	}
	n := t.cacheMisses
	for _, c := range t.children {
		n += c.CacheMisses()
	}
	return n
}

// NotePrefetch records that the query's scan handed pages to the background
// prefetcher. This is accounting only; prefetched pages are never Touched,
// so the paper's page-read counts are identical with prefetching on or off.
func (t *Tracker) NotePrefetch(pages int) {
	if t == nil {
		return
	}
	t.prefetchIssued += pages
}

// PrefetchIssued returns the number of pages handed to the prefetcher.
func (t *Tracker) PrefetchIssued() int {
	if t == nil {
		return 0
	}
	n := t.prefetchIssued
	for _, c := range t.children {
		n += c.PrefetchIssued()
	}
	return n
}

// BytesDecoded returns the total entry bytes materialized by node decodes.
func (t *Tracker) BytesDecoded() int64 {
	if t == nil {
		return 0
	}
	n := t.bytesDecoded
	for _, c := range t.children {
		n += c.BytesDecoded()
	}
	return n
}

// Merge folds the pages seen by other into t without double-counting:
// after the call t.Reads() is the number of distinct pages touched by
// either tracker. other may be nil or empty. Merging the per-goroutine
// trackers of a concurrent run therefore reproduces exactly the count a
// single shared tracker would have reported for the same page set. Child i
// of other merges into child i of t, file by file. The CPU-cost counters
// are plain event counts, not sets, so they merge by summation.
func (t *Tracker) Merge(other *Tracker) {
	if t == nil || other == nil {
		return
	}
	for id := range other.seen {
		t.Touch(id)
	}
	t.cacheHits += other.cacheHits
	t.cacheMisses += other.cacheMisses
	t.bytesDecoded += other.bytesDecoded
	t.prefetchIssued += other.prefetchIssued
	for i, c := range other.children {
		if c != nil {
			t.Child(i, len(other.children)).Merge(c)
		}
	}
}

// Reset clears the tracker for reuse by the next query.
func (t *Tracker) Reset() {
	if t == nil {
		return
	}
	clear(t.seen)
	t.reads = 0
	t.cacheHits, t.cacheMisses, t.bytesDecoded = 0, 0, 0
	t.prefetchIssued = 0
	for _, c := range t.children {
		c.Reset()
	}
}
