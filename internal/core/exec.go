package core

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/btree"
	"repro/internal/pager"
)

// Algorithm selects the retrieval strategy.
type Algorithm int

const (
	// Parallel is Algorithm 1 of the paper (Parscan): one multi-interval
	// descent of the B-tree; shared pages are read once, irrelevant
	// subtrees are pruned, and mismatching clusters are skipped via the
	// parent-node skip.
	Parallel Algorithm = iota
	// Forward is the baseline of Section 3.3: find the first relevant
	// entry with a standard B-tree search, then scan the leaf chain
	// forward across the whole spanned range, filtering.
	Forward
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Parallel:
		return "parallel"
	case Forward:
		return "forward"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Stats reports the cost of one query execution, in the units the paper's
// experiments use.
type Stats struct {
	Algorithm      Algorithm
	PagesRead      int // distinct pages fetched (Section 5 metric)
	EntriesScanned int // index entries inspected
	Matches        int
	Intervals      int // search intervals after compilation
	// CPU-cost counters of the zero-copy read path (this repo's metric,
	// not the paper's — the paper models I/O only): node fetches served
	// by the shared decoded-node cache vs. decoded from page bytes, and
	// how many entry bytes those decodes materialized. Orthogonal to
	// PagesRead, which is counted before any cache is consulted.
	NodeCacheHits   int
	NodeCacheMisses int
	BytesDecoded    int64
	// PrefetchIssued counts pages the scan handed to the background
	// frontier prefetcher (0 when prefetch is off or unsupported).
	// Accounting only: prefetched pages are never Touched, so PagesRead
	// is identical with prefetching on or off.
	PrefetchIssued int
}

// ExecContext is the mutable per-query execution state: the page tracker,
// the algorithm choice, and the accumulated cost counters. Every query that
// is not handed one explicitly gets a fresh ExecContext, so two concurrent
// Parscan descents never share mutable state — this is the unit the
// engine's "any number of readers" contract is built from. An ExecContext
// must not be shared between goroutines; combine per-goroutine contexts
// afterwards with Tracker.Merge (the distinct-page union is identical to a
// sequential run under one shared tracker).
//
// Reusing one ExecContext (or one Tracker) across several sequential
// queries reproduces the paper's buffered experiment model: the tracker
// deduplicates pages across the whole sequence, Stats.PagesRead reports
// cumulative distinct pages, and the scan counters accumulate. Shard files
// have independent page-id spaces, so each shard is accounted on its own
// child of the tracker (Tracker.Child) and PagesRead sums them.
type ExecContext struct {
	// Tracker deduplicates page reads. NewExecContext allocates one; a
	// zero-value ExecContext lazily gets one on first use.
	Tracker *pager.Tracker
	// Algorithm is the retrieval strategy for queries run under this
	// context.
	Algorithm Algorithm
	// Stats accumulates cost over every query executed with this context.
	Stats Stats
}

// NewExecContext returns an ExecContext with a fresh tracker.
func NewExecContext(alg Algorithm) *ExecContext {
	return &ExecContext{Tracker: pager.NewTracker(), Algorithm: alg}
}

// runPlan executes a compiled plan against one pinned shard version under
// the shard's tracker and collects every match into out — within one shard
// the scan visits keys ascending, so out holds them in key order. The plan
// may have been compiled by another shard of the same group; shards share
// spec, coding, and store, so plans are interchangeable. It returns the
// number of entries the scan inspected; page counts stay on tr.
func (ix *Index) runPlan(ctx context.Context, v *btree.Snap, p *plan, alg Algorithm, tr *pager.Tracker, out *shardResult) (scanned int, err error) {
	var lastDistinct []byte // forward-scan duplicate suppression for Distinct
	var sc matchScratch     // per-entry parse state, reused across the scan
	emit := func(key []byte) (skipTo []byte, err error) {
		scanned++
		attr, path, ok, skip, err := p.matchKey(ix, key, &sc)
		if err != nil || !ok {
			return skip, err
		}
		if p.q.Distinct > 0 && skip != nil {
			// The skip key doubles as the cluster signature. The
			// parallel algorithm jumps past the cluster so this
			// never repeats; the forward scan visits every entry
			// and must suppress the repeats itself.
			if bytes.Equal(skip, lastDistinct) {
				return skip, nil
			}
			lastDistinct = append(lastDistinct[:0], skip...)
		}
		return skip, out.add(ix.attrType, key, attr, path)
	}
	switch alg {
	case Parallel:
		err = v.MultiScanKeys(ctx, p.intervals, tr, func(k, _ []byte) ([]byte, bool, error) {
			skip, err := emit(k)
			return skip, false, err
		})
	case Forward:
		// Per search value: one descent to the value's first entry,
		// then a sweep of the entire value cluster — every class's
		// entries are inspected and filtered, with no seeking past
		// irrelevant classes. This is the Section-3.3 baseline the
		// parallel algorithm is measured against in Table 1.
		for _, iv := range btree.NormalizeIntervals(p.valueIntervals) {
			err = v.ScanKeys(ctx, iv.Lo, iv.Hi, tr, func(k, _ []byte) ([]byte, bool, error) {
				_, err := emit(k)
				return nil, false, err
			})
			if err != nil {
				break
			}
		}
	default:
		return 0, fmt.Errorf("core: unknown algorithm %d", int(alg))
	}
	return scanned, err
}
