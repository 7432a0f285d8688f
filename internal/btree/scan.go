package btree

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"repro/internal/pager"
)

// Interval is a half-open key range [Lo, Hi). A nil Lo means "from the
// beginning"; a nil Hi means "to the end".
type Interval struct {
	Lo, Hi []byte
}

// contains reports whether key lies in the interval.
func (iv Interval) contains(key []byte) bool {
	if iv.Lo != nil && bytes.Compare(key, iv.Lo) < 0 {
		return false
	}
	return iv.Hi == nil || bytes.Compare(key, iv.Hi) < 0
}

// empty reports whether the interval can contain no key.
func (iv Interval) empty() bool {
	return iv.Lo != nil && iv.Hi != nil && bytes.Compare(iv.Lo, iv.Hi) >= 0
}

// NormalizeIntervals sorts intervals and merges the ones that overlap or
// touch, producing the canonical disjoint ascending form MultiScan expects.
// Intervals already in that form — non-empty, ascending, and each ending
// below the next one's start — come back as ivs itself, with no allocation.
func NormalizeIntervals(ivs []Interval) []Interval {
	if normalized(ivs) {
		return ivs
	}
	out := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.empty() {
			out = append(out, iv)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Lo, out[j].Lo
		switch {
		case a == nil && b == nil:
			return false
		case a == nil:
			return true
		case b == nil:
			return false
		}
		return bytes.Compare(a, b) < 0
	})
	merged := out[:0]
	for _, iv := range out {
		if len(merged) == 0 {
			merged = append(merged, iv)
			continue
		}
		last := &merged[len(merged)-1]
		// Overlap or touch: iv.Lo <= last.Hi (nil last.Hi = +inf).
		if last.Hi == nil || iv.Lo == nil || bytes.Compare(iv.Lo, last.Hi) <= 0 {
			if last.Hi != nil && (iv.Hi == nil || bytes.Compare(iv.Hi, last.Hi) > 0) {
				last.Hi = iv.Hi
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

// normalized reports whether ivs is already in NormalizeIntervals' form.
func normalized(ivs []Interval) bool {
	for i, iv := range ivs {
		if iv.empty() {
			return false
		}
		if i > 0 {
			prev := ivs[i-1].Hi
			if prev == nil || iv.Lo == nil || bytes.Compare(iv.Lo, prev) <= 0 {
				return false
			}
		}
	}
	return true
}

// ScanFunc receives each matching key/value pair in ascending key order.
// Returning stop ends the scan. Returning a non-nil skipTo (which must be
// greater than the current key) makes the scan resume at the first key >=
// skipTo: this implements the paper's parent-node skip ("whenever you need
// to skip some entries, lookup the uncompressed part of the key in the
// parent node, and search for the first entry with key equal or larger to
// it", Section 3.3), because already-fetched pages are free under the query
// tracker and only genuinely new pages are counted.
type ScanFunc func(key, val []byte) (skipTo []byte, stop bool, err error)

// MultiScan is the paper's "parallel" retrieval algorithm (Algorithm 1,
// Parscan): it walks the B-tree once for an entire set of key intervals,
// descending into each relevant subtree exactly once, so pages shared by
// several partial keys are read a single time. Intervals are normalized
// internally. The scan runs against the version current when it starts;
// concurrent commits are not observed. ctx (which may be nil) is checked
// once per node visited.
func (t *Tree) MultiScan(ctx context.Context, ivs []Interval, tr *pager.Tracker, fn ScanFunc) error {
	v, release := t.pin()
	defer release()
	return t.multiScanAt(ctx, v, ivs, tr, fn, false)
}

// MultiScanKeys is MultiScan for callers that ignore values: stored values
// are never materialized (overflow chains are not followed), and fn receives
// a nil value. The U-index carries its whole payload inside the composite
// key (the paper's clustering argument), so the engine's query executor is a
// keys-only consumer; skipping value materialization removes the last
// per-entry copy from its hot loop.
func (t *Tree) MultiScanKeys(ctx context.Context, ivs []Interval, tr *pager.Tracker, fn ScanFunc) error {
	v, release := t.pin()
	defer release()
	return t.multiScanAt(ctx, v, ivs, tr, fn, true)
}

func (t *Tree) multiScanAt(ctx context.Context, v *version, ivs []Interval, tr *pager.Tracker, fn ScanFunc, keysOnly bool) error {
	ivs = NormalizeIntervals(ivs)
	if len(ivs) == 0 {
		return nil
	}
	s := &multiScan{ctx: ctx, op: &readOp{t: t}, tr: tr, ivs: ivs, fn: fn, keysOnly: keysOnly}
	if t.pf != nil && v.hgt >= 2 {
		// The prefetcher goroutine must finish before the version pin is
		// released (the deferred stop runs before our caller's release),
		// so read-ahead never touches a page after reclamation frees it.
		s.startPrefetcher(t.pf)
		defer s.stopPrefetcher()
	}
	_, err := s.walk(v.root)
	return err
}

type multiScan struct {
	ctx      context.Context
	op       *readOp
	tr       *pager.Tracker
	ivs      []Interval
	iv       int    // current interval index (monotonically advances)
	skip     []byte // dynamic lower bound set by ScanFunc skip requests
	fn       ScanFunc
	keysOnly bool // do not materialize values; fn sees a nil value

	// Frontier prefetch (prefetch.go); nil pfCh = prefetch off.
	pfCh   chan pfBatch
	pfDone chan struct{}
}

// leafStart returns the index of the first leaf entry worth inspecting:
// the first key at or above both the dynamic skip bound and the current
// interval's lower end. Entries below that bound can match no interval —
// earlier intervals are done (s.iv only moves forward) and later ones lie
// higher still.
func (s *multiScan) leafStart(keys [][]byte) int {
	lb := s.ivs[s.iv].Lo
	if s.skip != nil && (lb == nil || bytes.Compare(s.skip, lb) > 0) {
		lb = s.skip
	}
	if lb == nil {
		return 0
	}
	return sort.Search(len(keys), func(j int) bool {
		return bytes.Compare(keys[j], lb) >= 0
	})
}

// advance moves the interval cursor past intervals wholly below key.
// It reports whether any interval remains.
func (s *multiScan) advance(key []byte) bool {
	for s.iv < len(s.ivs) {
		hi := s.ivs[s.iv].Hi
		if hi == nil || bytes.Compare(key, hi) < 0 {
			return true
		}
		s.iv++
	}
	return false
}

// walk processes a subtree; it returns stop=true when the scan is complete.
func (s *multiScan) walk(id pager.PageID) (bool, error) {
	if err := ctxErr(s.ctx); err != nil {
		return true, err
	}
	n, err := s.op.fetch(id, s.tr)
	if err != nil {
		return true, err
	}
	if n.leaf {
		// Binary-search the first entry that can match (everything below
		// the skip bound and the current interval's lower end is dead):
		// a descent lands on leaves where the relevant cluster starts
		// deep inside the page.
		for i := s.leafStart(n.keys); i < len(n.keys); i++ {
			key := n.keys[i]
			if s.skip != nil && bytes.Compare(key, s.skip) < 0 {
				continue
			}
			if !s.advance(key) {
				return true, nil
			}
			if lo := s.ivs[s.iv].Lo; lo != nil && bytes.Compare(key, lo) < 0 {
				// The key sits in the gap below the current interval;
				// jump straight to the interval's start (the i++ lands
				// on the first entry at or above lo).
				i = sort.Search(len(n.keys), func(j int) bool {
					return bytes.Compare(n.keys[j], lo) >= 0
				}) - 1
				continue
			}
			// advance guaranteed key < Hi and the jump above guaranteed
			// key >= Lo: the key is inside the current interval.
			var val []byte
			if !s.keysOnly {
				if val, err = s.op.t.loadValue(n.vals[i], s.tr); err != nil {
					return true, err
				}
			}
			skipTo, stop, err := s.fn(key, val)
			if err != nil || stop {
				return true, err
			}
			if skipTo != nil {
				if bytes.Compare(skipTo, key) <= 0 {
					return true, fmt.Errorf("btree: skipTo %q not above current key", skipTo)
				}
				s.skip = append(s.skip[:0], skipTo...)
			}
		}
		return false, nil
	}
	// Child ci covers keys in [keys[ci-1], keys[ci]) (open at the ends).
	// A child is relevant when some interval intersects that range above
	// the dynamic skip bound. Intervals are disjoint and ascending, so a
	// single forward cursor (s.iv) suffices. The same relevance conditions,
	// simulated against a local cursor, give the next-level frontier, which
	// is handed to the prefetcher before the descent starts (prefetch.go).
	s.maybePrefetch(n)
	for ci := 0; ci <= len(n.keys); ci++ {
		if ci > 0 && !s.advance(n.keys[ci-1]) {
			return true, nil // every interval lies below this child
		}
		if ci < len(n.keys) {
			ub := n.keys[ci]
			// s.ivs[s.iv] is the first interval ending above this
			// child's start; if it begins at or after the child's
			// end, no interval intersects the child.
			if lo := s.ivs[s.iv].Lo; lo != nil && bytes.Compare(lo, ub) >= 0 {
				continue
			}
			// Nothing below the skip bound is of interest.
			if s.skip != nil && bytes.Compare(s.skip, ub) >= 0 {
				continue
			}
		}
		stop, err := s.walk(n.children[ci])
		if err != nil || stop {
			return stop, err
		}
	}
	return false, nil
}

// Scan is the forward-scanning baseline (Section 3.3 "finding the first
// relevant index entry using the standard B-tree search, and then scanning
// the index forwards from that point on"): MultiScan over the one interval
// [lo, hi). It visits every entry in the range in order, fetching every leaf
// in the range plus the internal pages that cover it (copy-on-write leaves
// carry no sibling links, so the walk comes down from the root). The scan
// runs against the version current when it starts. ctx (which may be nil) is
// checked once per node visited.
func (t *Tree) Scan(ctx context.Context, lo, hi []byte, tr *pager.Tracker, fn ScanFunc) error {
	return t.MultiScan(ctx, []Interval{{lo, hi}}, tr, fn)
}

// ScanKeys is Scan for callers that ignore values; see MultiScanKeys.
func (t *Tree) ScanKeys(ctx context.Context, lo, hi []byte, tr *pager.Tracker, fn ScanFunc) error {
	return t.MultiScanKeys(ctx, []Interval{{lo, hi}}, tr, fn)
}
