package btree

import (
	"bytes"
	"runtime"

	"repro/internal/pager"
)

// Frontier prefetch for the multi-interval scan (Parscan, Algorithm 1).
//
// When a Parscan descent reaches an internal node it already knows, from the
// node's separator keys and its own interval set, exactly which children the
// recursion is about to visit — the next-level frontier. When the tree's
// page file offers batched read-ahead (the buffer pool's Prefetch), the scan
// hands that frontier to a per-scan prefetcher goroutine and keeps walking:
// the children are fetched as one coalesced batch instead of one synchronous
// read per child at the moment each is visited.
//
// The prefetcher then goes one level further: it decodes the internal nodes
// it just fetched, installs them in the node cache for the walk, and pushes
// the union of their own frontiers as a second batch. The per-node
// frontiers of a Parscan descent are small (a dispersed interval set
// selects only a few children per node), but their union across
// the level is large, and batched-read throughput improves steeply with
// batch size — the union reaches queue depths no single node's frontier
// could. Each level of look-ahead is issued before the walk needs it, so a
// descent's I/O collapses to roughly one coalesced batch per level.
//
// Prefetch is a hint, never a dependency: the walk's own fetch path is
// unchanged, the pool's admission detects pages that raced in and never
// reads them twice, and prefetch failures are swallowed (the synchronous
// read will surface them). Logical page accounting is untouched by
// construction — the tracker counts a page in readOp.fetch before any cache
// or pool is consulted, and the prefetcher never calls Touch — so the
// paper's page-read counts are identical with prefetch on or off.

// prefetchPool is the optional read-ahead capability of the tree's page
// file; *bufferpool.Pool implements it.
type prefetchPool interface {
	// Prefetch loads the given pages into frames without pinning them,
	// returning how many were actually read. Errors are swallowed.
	Prefetch(ids []pager.PageID) int
}

// prefetchQueueDepth bounds the frontier batches queued to one scan's
// prefetcher goroutine. Sends are non-blocking: when the prefetcher is
// this far behind, further hints are dropped rather than stalling the scan.
const prefetchQueueDepth = 8

// pfBatch is one frontier hint: the pages of a node's relevant children,
// plus the snapshot of scan state the prefetcher needs to extend the
// frontier one level deeper on its own — the interval-cursor position at
// each child and the dynamic skip bound at issue time (walk mutates its
// copy in place, so the batch carries its own).
type pfBatch struct {
	ids  []pager.PageID
	ivs  []int
	skip []byte
}

// startPrefetcher spins up the scan's prefetcher goroutine. The caller must
// pair it with stopPrefetcher before the scan's version pin is released:
// prefetch I/O must complete while the pages it touches are still pinned
// against reclamation.
func (s *multiScan) startPrefetcher(pool prefetchPool) {
	s.pfCh = make(chan pfBatch, prefetchQueueDepth)
	s.pfDone = make(chan struct{})
	go func() {
		defer close(s.pfDone)
		buf := make([]byte, s.op.t.f.PageSize())
		for b := range s.pfCh {
			pool.Prefetch(b.ids)
			s.deepPrefetch(pool, b, buf)
		}
	}()
}

// stopPrefetcher drains the queue and waits for in-flight prefetch I/O.
func (s *multiScan) stopPrefetcher() {
	close(s.pfCh)
	<-s.pfDone
}

// deepPrefetch extends a just-fetched frontier one level down: it takes
// each internal node of the batch from the node cache, or decodes it (the
// page is pool-resident now, so the read is a copy, not I/O) and installs
// it there for the walk, which visits it next; then it issues the union of
// their relevant children as one batch. Leaf pages are recognised by their
// flag and never decoded. Every error aborts silently — read-ahead is
// best-effort. The logical counts do not move: the walk's fetch counts a
// page before it looks in the cache.
func (s *multiScan) deepPrefetch(pool prefetchPool, b pfBatch, buf []byte) {
	t := s.op.t
	var union []pager.PageID
	for i, id := range b.ids {
		n, ok := t.ncache.peek(id)
		if !ok {
			if err := t.f.Read(id, buf); err != nil {
				return
			}
			if buf[0]&flagLeaf != 0 {
				continue // the frontier is the leaf level; nothing below it
			}
			var err error
			if n, err = decodeNode(id, buf); err != nil {
				return
			}
			t.ncache.put(n)
		}
		if n.leaf {
			continue
		}
		ids, _ := s.frontierAt(n, b.ivs[i], b.skip)
		union = append(union, ids...)
	}
	if len(union) > 0 {
		pool.Prefetch(union)
	}
}

// maybePrefetch enqueues the relevant, not-yet-decoded children of an
// internal node for read-ahead. It must be called with the scan state
// (s.iv, s.skip) positioned as it is when walk starts iterating n's
// children; the frontier simulation advances a local copy of the cursor.
func (s *multiScan) maybePrefetch(n *node) {
	if s.pfCh == nil || len(n.children) < 2 {
		return
	}
	ids, ivs := s.frontierAt(n, s.iv, s.skip)
	if len(ids) == 0 {
		return
	}
	var skip []byte
	if s.skip != nil {
		skip = append([]byte(nil), s.skip...)
	}
	select {
	case s.pfCh <- pfBatch{ids: ids, ivs: ivs, skip: skip}:
		s.tr.NotePrefetch(len(ids))
		// Hand the processor to the prefetcher so it starts the batched
		// read before the walk issues a synchronous read for the first
		// child — which is always part of the batch. Without the yield a
		// single-P runtime keeps the walk running until it blocks inside
		// that first single-page read, by which point the coalescing
		// opportunity for it is gone and the prefetcher races the walk
		// page-by-page for the rest; with it the whole frontier lands as
		// one batched submission and the walk's pins hit warm frames.
		runtime.Gosched()
	default: // prefetcher saturated; drop the hint
	}
}

// frontierAt computes the children of n the recursion is about to descend
// into, replicating walk's relevance conditions with a local interval
// cursor starting at iv (s.advance mutates s.iv, so the real cursor cannot
// be used for look-ahead; the prefetcher goroutine passes a snapshot).
// Children whose decoded form is already in the node cache are dropped —
// their visit costs no I/O. Alongside each selected child it reports the
// cursor position on entry to that child, which is what deepPrefetch needs
// to continue the simulation a level down. The dynamic skip bound can only
// grow during the descent, so the simulated frontier over-approximates the
// pages actually visited; the surplus is wasted read-ahead, never a wrong
// result. Safe for concurrent use: it reads only the immutable interval
// set and the lock-protected node cache.
func (s *multiScan) frontierAt(n *node, iv int, skip []byte) (ids []pager.PageID, ivAt []int) {
	for ci := 0; ci <= len(n.keys); ci++ {
		if ci > 0 {
			key := n.keys[ci-1]
			for iv < len(s.ivs) && s.ivs[iv].Hi != nil && bytes.Compare(key, s.ivs[iv].Hi) >= 0 {
				iv++
			}
			if iv >= len(s.ivs) {
				break // every remaining interval lies below this child
			}
		}
		if ci < len(n.keys) {
			ub := n.keys[ci]
			if lo := s.ivs[iv].Lo; lo != nil && bytes.Compare(lo, ub) >= 0 {
				continue
			}
			if skip != nil && bytes.Compare(skip, ub) >= 0 {
				continue
			}
		}
		if _, ok := s.op.t.ncache.peek(n.children[ci]); ok {
			continue
		}
		if ids == nil { // first uncached child: size for the rest of the node
			ids = make([]pager.PageID, 0, len(n.children)-ci)
			ivAt = make([]int, 0, len(n.children)-ci)
		}
		ids = append(ids, n.children[ci])
		ivAt = append(ivAt, iv)
	}
	return ids, ivAt
}
