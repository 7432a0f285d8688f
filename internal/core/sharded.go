package core

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/btree"
	"repro/internal/encoding"
	"repro/internal/pager"
	"repro/internal/store"
)

// Sharded is a U-index as a group of shards acting as one logical index —
// the only index type there is; a one-shard group is the plain U-index. The
// key space is partitioned by class-code intervals (ShardMap), each shard is
// one tree with its own page file, buffer pool, node cache, and writer lock,
// and queries scatter over the relevant shards and merge in key order. All
// shards share one spec, coding, and object store; shard 0 is the prototype
// used for compilation, parsing, and key enumeration.
//
// Locking contract (the caller — the facade — serializes writers): a
// mutation must hold the writer locks of every shard it may touch. For a
// class-hierarchy index (path length 1) an object's keys are a pure function
// of its own class and attributes, so they all carry the object's class code
// at position 0 and land in exactly one shard — WriteShards returns that
// single shard. For a path index a mutation can ripple to entries of other
// objects reachable through reference chains, whose terminal classes (and
// hence shards) are unknown until enumeration — WriteShards returns every
// shard, restoring the whole-index exclusivity of a single tree.
type Sharded struct {
	shards []*Index
	smap   *ShardMap
}

// NewSharded builds or reopens the U-index group of spec over st, one shard
// per page file: shard i lives in files[i] and holds the keys smap routes to
// it; a nil smap is the one-shard group. With metas nil every shard starts
// empty and the group is bulk-built from the store. Otherwise shard i reopens
// the tree whose metadata page is metas[i] (its MetaPage after the Flush that
// persisted it); the store must then hold the objects the group was built
// from — a group reopened over a diverged store answers stale, like any
// database whose files changed behind its back. The caller owns the files.
func NewSharded(st *store.Store, spec Spec, smap *ShardMap, files []pager.File, metas []pager.PageID) (*Sharded, error) {
	if smap == nil {
		smap = NewShardMap(nil, 1)
	}
	if len(files) != smap.Shards() {
		return nil, fmt.Errorf("core: shard map routes to %d shards, got %d files", smap.Shards(), len(files))
	}
	if metas != nil && len(metas) != len(files) {
		return nil, fmt.Errorf("core: %d meta pages for %d shards", len(metas), len(files))
	}
	r, err := resolve(st, spec)
	if err != nil {
		return nil, err
	}
	sh := &Sharded{shards: make([]*Index, len(files)), smap: smap}
	for i, f := range files {
		meta := pager.NilPage
		if metas != nil {
			meta = metas[i]
		}
		if sh.shards[i], err = r.newShard(f, meta); err != nil {
			return nil, err
		}
	}
	if metas == nil {
		if err := sh.build(); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// ShardCodes validates spec against the store's schema and returns the codes
// its shard map is built from (NewShardMap): every coded class inside the
// terminal class's hierarchy — position 0 of every key carries one of exactly
// these codes — ascending. The coding table is already sorted by code, which
// is hierarchy preorder.
func ShardCodes(st *store.Store, spec Spec) ([]encoding.Code, error) {
	r, err := resolve(st, spec)
	if err != nil {
		return nil, err
	}
	sch := st.Schema()
	terminal := r.pathCls[len(r.pathCls)-1]
	var codes []encoding.Code
	for _, row := range r.coding.Table() {
		if sch.IsSubclassOf(row.Class, terminal) {
			codes = append(codes, row.Code)
		}
	}
	return codes, nil
}

// Prototype returns shard 0, the representative Index for compilation,
// query parsing, and spec/coding introspection.
func (sh *Sharded) Prototype() *Index { return sh.shards[0] }

// NumShards returns the shard count.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

// Shard returns shard i.
func (sh *Sharded) Shard(i int) *Index { return sh.shards[i] }

// Covers reports whether an object of the given class can participate: the
// class is a subclass of (or equal to) one of the path classes.
func (sh *Sharded) Covers(class string) bool {
	proto := sh.shards[0]
	sch := proto.st.Schema()
	for _, c := range proto.pathCls {
		if sch.IsSubclassOf(class, c) {
			return true
		}
	}
	return false
}

// AllShards returns the set of every shard as a bit mask (bit i = shard i;
// pager.MaxShards keeps the count below 64).
func (sh *Sharded) AllShards() uint64 { return 1<<len(sh.shards) - 1 }

// WriteShards returns, as a bit mask, the shards whose writer locks a
// mutation of an object of the given class must hold; see the type comment
// for the single-shard vs. all-shards rule.
func (sh *Sharded) WriteShards(class string) uint64 {
	proto := sh.shards[0]
	if len(sh.shards) > 1 && len(proto.pathCls) == 1 {
		if code, ok := proto.coding.Code(class); ok {
			return 1 << sh.smap.ShardOf(code)
		}
	}
	return sh.AllShards()
}

// LockShards acquires the writer locks of the shards in the mask, ascending
// — the global lock order (group creation order, then shard index) keeps
// multi-index writers deadlock-free.
func (sh *Sharded) LockShards(mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		sh.shards[bits.TrailingZeros64(mask)].wmu.Lock()
	}
}

// UnlockShards releases the writer locks of the shards in the mask.
func (sh *Sharded) UnlockShards(mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		sh.shards[bits.TrailingZeros64(mask)].wmu.Unlock()
	}
}

// EntriesFor enumerates the keys an object participates in (prototype
// enumeration; all shards share the store).
func (sh *Sharded) EntriesFor(oid store.OID) ([][]byte, error) {
	return sh.shards[0].EntriesFor(oid)
}

// routeKey returns the shard a key belongs to.
func (sh *Sharded) routeKey(k []byte) (*Index, error) {
	i, err := sh.smap.ShardOfKey(sh.shards[0].attrType, k)
	if err != nil {
		return nil, err
	}
	return sh.shards[i], nil
}

// DiffKeys reduces an old/new entry-set pair to the deletions and
// insertions that turn one into the other — the paper's Section 3.5 update,
// and exactly what a logical log records. With both sides present the
// intersection is skipped and both outputs come back sorted, which realizes
// the paper's batch-update observation: all entries of the old and new
// mid-path object are clustered, so the update touches few pages. With
// either side empty there is nothing to intersect and the other side passes
// through in enumeration order.
func DiffKeys(oldKeys, newKeys [][]byte) (dels, ins [][]byte) {
	if len(oldKeys) == 0 || len(newKeys) == 0 {
		return oldKeys, newKeys
	}
	olds := keySet(oldKeys)
	news := keySet(newKeys)
	for k, b := range olds {
		if _, keep := news[k]; !keep {
			dels = append(dels, b)
		}
	}
	for k, b := range news {
		if _, had := olds[k]; !had {
			ins = append(ins, b)
		}
	}
	sortKeys(dels)
	sortKeys(ins)
	return dels, ins
}

func keySet(keys [][]byte) map[string][]byte {
	m := make(map[string][]byte, len(keys))
	for _, k := range keys {
		m[string(k)] = k
	}
	return m
}

// ApplyKeys applies pre-computed key edits — deletions first, then
// insertions — each routed to its shard. Deleting an absent key and
// re-inserting a present one are both no-ops at the B-tree layer, which
// makes replaying the same edits a second time idempotent. The caller holds
// the WriteShards locks of every touched shard.
func (sh *Sharded) ApplyKeys(dels, ins [][]byte) error {
	for _, k := range dels {
		ix, err := sh.routeKey(k)
		if err != nil {
			return err
		}
		if _, err := ix.tree.Delete(k); err != nil {
			return err
		}
	}
	for _, k := range ins {
		ix, err := sh.routeKey(k)
		if err != nil {
			return err
		}
		if err := ix.tree.Insert(k, nil); err != nil {
			return err
		}
	}
	return nil
}

// build populates empty shards from the store with one bulk load per shard:
// every path instance is enumerated once from the root class's hierarchy
// extent, the keys are sorted and partitioned by shard (a per-shard subset of
// the globally sorted key list is itself sorted), and loaded bottom-up.
func (sh *Sharded) build() error {
	proto := sh.shards[0]
	for _, ix := range sh.shards {
		if ix.tree.Len() != 0 {
			return fmt.Errorf("core: Build on non-empty sharded index %q", ix.spec.Name)
		}
	}
	var keys [][]byte
	for _, oid := range proto.st.HierarchyExtent(proto.spec.Root) {
		fwd, err := proto.forwardChains(oid, 0)
		if err != nil {
			return err
		}
		for _, c := range fwd {
			key, ok, err := proto.keyFor(c)
			if err != nil {
				return err
			}
			if ok {
				keys = append(keys, key)
			}
		}
	}
	sortKeys(keys)
	parts := make([][][]byte, len(sh.shards))
	var last []byte
	for i, k := range keys {
		if i > 0 && bytes.Equal(last, k) {
			continue // paths are unique; guard anyway since BulkLoad requires strict ascent
		}
		last = k
		si, err := sh.smap.ShardOfKey(proto.attrType, k)
		if err != nil {
			return err
		}
		parts[si] = append(parts[si], k)
	}
	for i, ix := range sh.shards {
		if err := ix.tree.BulkLoad(btree.SliceSource(parts[i], nil)); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the total number of entries across shards.
func (sh *Sharded) Len() int {
	n := 0
	for _, ix := range sh.shards {
		n += ix.Len()
	}
	return n
}

// DropCache flushes and clears every shard's caches.
func (sh *Sharded) DropCache() error {
	var first error
	for _, ix := range sh.shards {
		if err := ix.DropCache(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NodeCacheStats sums the decoded-node cache counters across shards.
func (sh *Sharded) NodeCacheStats() btree.CacheStats {
	var agg btree.CacheStats
	for _, ix := range sh.shards {
		st := ix.NodeCacheStats()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Entries += st.Entries
	}
	return agg
}

// relevantShards returns the ascending shard indices a compiled plan can
// find entries in, pruned by intersecting each position-0 class pattern's
// code interval with the shard intervals. A conservative answer (extra
// shards) only costs empty scans; position 0 (the terminal class, first in
// the key) is the routing position, so the pruning is exact for class
// patterns and falls back to every shard for wildcards.
func (sh *Sharded) relevantShards(p *plan) []int {
	n := len(sh.shards)
	if len(p.patterns) == 0 || len(p.patterns[0]) == 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	mark := make([]bool, n)
	for _, cp := range p.patterns[0] {
		if cp.subtree {
			from, to := sh.smap.ShardRange(string(cp.code), cp.code.SubtreeEnd())
			for i := from; i <= to; i++ {
				mark[i] = true
			}
		} else {
			mark[sh.smap.ShardOf(cp.code)] = true
		}
	}
	var out []int
	for i, m := range mark {
		if m {
			out = append(out, i)
		}
	}
	return out
}

// ExecuteCtx runs a query across the shards and returns its matches in
// global key order. Each shard scans one pinned version of its own tree, so a
// concurrent writer is neither observed nor blocked; ctx cancellation is
// checked at every page visit. With more than one relevant shard the scans
// run concurrently and their results are merged by full-key byte order
// (shards interleave by attribute value, so a plain concatenation would be
// out of order). The matches share storage as the Match type describes.
//
// The returned Stats are this query's own counters, with the page counters
// read from ec.Tracker — cumulative over every query that shared it, summed
// over its per-shard children. ec.Stats additionally accumulates the scan
// counters. ExecuteCtx is safe to call concurrently as long as each
// goroutine uses its own ExecContext.
func (sh *Sharded) ExecuteCtx(ctx context.Context, q Query, ec *ExecContext) ([]Match, Stats, error) {
	return sh.execute(ctx, q, ec, func(i int) (*btree.Snap, func() error) {
		s := sh.shards[i].tree.Snapshot()
		return s, s.Release
	})
}

// Execute runs a query across the shards. ec may be nil, which runs the
// query under a fresh context; pass one to share page accounting across
// several queries.
func (sh *Sharded) Execute(q Query, alg Algorithm, ec *ExecContext) ([]Match, Stats, error) {
	if ec == nil {
		ec = &ExecContext{}
	}
	ec.Algorithm = alg
	return sh.ExecuteCtx(context.Background(), q, ec)
}

// shardResult is one shard's part of a query result, collected without a
// heap object per match. The path entries of its matches go to an arena,
// plen entries each, in scan order. The arena is a list of blocks, each twice
// the size of the one before, that are filled and never moved: N entries
// allocate at most about 2N and copy nothing, where one slice grown by append
// would allocate and copy several times N. The matches' values go to runs of
// consecutive matches with equal attribute bytes — keys are value-first, so
// runs are long and a value is decoded once per run. Only when several shards
// must be merged are the raw keys kept too, concatenated in keys with ends
// marking where each one stops.
type shardResult struct {
	plen    int
	merge   bool
	n       int                    // matches collected
	paths   [][]encoding.PathEntry // the arena's blocks
	runs    []valueRun
	attr    []byte // encoded value of the last run
	keys    []byte
	ends    []int
	scanned int   // entries the scan inspected
	err     error // the scan's error
	next    int   // gather cursor: the next match to emit
	run     int   // the run holding match next
	blk     int   // the block holding match next's path
	off     int   // where in that block it starts
}

// valueRun is a run of consecutive matches sharing one decoded value: those
// numbered from the previous run's end up to end.
type valueRun struct {
	end   int
	value any
}

// add collects one match from the scratch views of its key: the raw key, its
// attribute-value bytes and its (Distinct-truncated) path.
func (r *shardResult) add(t encoding.AttrType, key, attr []byte, path []encoding.PathEntry) error {
	if len(path) != r.plen {
		return fmt.Errorf("core: match has %d path entries, want %d", len(path), r.plen)
	}
	if len(r.runs) == 0 || !bytes.Equal(attr, r.attr) {
		v, err := t.DecodeValue(attr)
		if err != nil {
			return err
		}
		r.runs = append(r.runs, valueRun{value: v})
		r.attr = append(r.attr[:0], attr...)
	}
	last := len(r.paths) - 1
	if last < 0 || cap(r.paths[last])-len(r.paths[last]) < r.plen {
		size := 16 * r.plen
		if last >= 0 {
			size = 2 * cap(r.paths[last])
		}
		r.paths = append(r.paths, make([]encoding.PathEntry, 0, size))
		last++
	}
	r.paths[last] = append(r.paths[last], path...)
	r.n++
	r.runs[len(r.runs)-1].end = r.n
	if r.merge {
		r.keys = append(r.keys, key...)
		r.ends = append(r.ends, len(r.keys))
	}
	return nil
}

// key returns the raw key of the next match to emit (merge only).
func (r *shardResult) key() []byte {
	lo := 0
	if r.next > 0 {
		lo = r.ends[r.next-1]
	}
	return r.keys[lo:r.ends[r.next]]
}

// pop returns the next match to emit and advances the cursor. Its Path is
// capped at its own entries, so an append to it copies.
func (r *shardResult) pop() Match {
	for r.runs[r.run].end <= r.next {
		r.run++
	}
	r.next++
	if r.off == len(r.paths[r.blk]) {
		r.blk, r.off = r.blk+1, 0
	}
	lo, hi := r.off, r.off+r.plen
	r.off = hi
	return Match{Value: r.runs[r.run].value, Path: r.paths[r.blk][lo:hi:hi]}
}

// gather builds a query's result from its shards' collections: one
// exact-size slice, filled by a k-way merge on the buffered keys. nil when
// nothing matched.
func gather(rs []shardResult) []Match {
	total := 0
	for i := range rs {
		total += rs[i].n
	}
	if total == 0 {
		return nil
	}
	out := make([]Match, 0, total)
	for len(out) < total {
		// best has the smallest next key and runner the next smallest;
		// best emits up to runner's next key before the heads are compared
		// again. A lone non-empty shard has no runner and never compares.
		var best, runner *shardResult
		for i := range rs {
			r := &rs[i]
			switch {
			case r.next == r.n:
			case best == nil:
				best = r
			case bytes.Compare(r.key(), best.key()) < 0:
				best, runner = r, best
			case runner == nil || bytes.Compare(r.key(), runner.key()) < 0:
				runner = r
			}
		}
		out = append(out, best.pop())
		for best.next < best.n && (runner == nil || bytes.Compare(best.key(), runner.key()) < 0) {
			out = append(out, best.pop())
		}
	}
	return out
}

func (sh *Sharded) execute(ctx context.Context, q Query, ec *ExecContext, snapOf func(int) (*btree.Snap, func() error)) ([]Match, Stats, error) {
	proto := sh.shards[0]
	n := len(sh.shards)
	p, err := proto.compile(q)
	if err != nil {
		return nil, Stats{}, err
	}
	if ec.Tracker == nil {
		ec.Tracker = pager.NewTracker()
	}
	rel := sh.relevantShards(p)
	stats := Stats{Algorithm: ec.Algorithm, Intervals: len(p.intervals)}
	plen := len(proto.pathCls)
	if q.Distinct > 0 {
		plen = q.Distinct
	}

	// Scatter: each relevant shard collects its matches under its own
	// child tracker, concurrently when there are several. The children are
	// materialized up front — Child grows the shared tracker and must not
	// race; afterwards the scans' Child calls only read it.
	for _, i := range rel {
		ec.Tracker.Child(i, n)
	}
	results := make([]shardResult, len(rel))
	scan := func(ri int) {
		r := &results[ri]
		r.plen, r.merge = plen, len(rel) > 1
		v, release := snapOf(rel[ri])
		r.scanned, r.err = proto.runPlan(ctx, v, p, ec.Algorithm, ec.Tracker.Child(rel[ri], n), r)
		if rerr := release(); rerr != nil && r.err == nil {
			r.err = rerr
		}
	}
	if len(rel) == 1 {
		scan(0)
	} else {
		var wg sync.WaitGroup
		for ri := range rel {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scan(ri)
			}()
		}
		wg.Wait()
	}
	for i := range results {
		stats.EntriesScanned += results[i].scanned
		if err == nil {
			err = results[i].err
		}
	}
	var out []Match
	if err == nil {
		out = gather(results)
		stats.Matches = len(out)
	}
	stats, err = finish(ec, stats, err)
	return out, stats, err
}

// finish reads a query's page counters off the context's tracker and folds
// its scan counters into the context: per-query counters add up, page
// counters are the tracker's cumulative distinct counts.
func finish(ec *ExecContext, stats Stats, err error) (Stats, error) {
	tr := ec.Tracker
	stats.PagesRead = tr.Reads()
	stats.NodeCacheHits = tr.CacheHits()
	stats.NodeCacheMisses = tr.CacheMisses()
	stats.BytesDecoded = tr.BytesDecoded()
	stats.PrefetchIssued = tr.PrefetchIssued()
	ec.Stats.Algorithm = ec.Algorithm
	ec.Stats.Intervals += stats.Intervals
	ec.Stats.EntriesScanned += stats.EntriesScanned
	ec.Stats.Matches += stats.Matches
	ec.Stats.PagesRead = stats.PagesRead
	ec.Stats.NodeCacheHits = stats.NodeCacheHits
	ec.Stats.NodeCacheMisses = stats.NodeCacheMisses
	ec.Stats.BytesDecoded = stats.BytesDecoded
	ec.Stats.PrefetchIssued = stats.PrefetchIssued
	return stats, err
}

// ShardedSnap is a pinned, immutable read view across every shard of a
// group: one consistent tree version per shard, taken together. Queries
// through it merge in key order exactly like the live path.
type ShardedSnap struct {
	sh    *Sharded
	snaps []*btree.Snap
}

// Snapshot pins every shard's current tree version.
func (sh *Sharded) Snapshot() *ShardedSnap {
	snaps := make([]*btree.Snap, len(sh.shards))
	for i, ix := range sh.shards {
		snaps[i] = ix.tree.Snapshot()
	}
	return &ShardedSnap{sh: sh, snaps: snaps}
}

// Epoch returns the pinned epoch of the prototype shard.
func (s *ShardedSnap) Epoch() uint64 { return s.snaps[0].Epoch() }

// Len returns the total number of entries across the pinned shard versions.
func (s *ShardedSnap) Len() int {
	n := 0
	for _, sn := range s.snaps {
		n += sn.Len()
	}
	return n
}

// Release unpins every shard version (idempotent per shard).
func (s *ShardedSnap) Release() error {
	var first error
	for _, sn := range s.snaps {
		if err := sn.Release(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ExecuteCtx runs a query against the pinned shard versions; semantics
// match Sharded.ExecuteCtx.
func (s *ShardedSnap) ExecuteCtx(ctx context.Context, q Query, ec *ExecContext) ([]Match, Stats, error) {
	return s.sh.execute(ctx, q, ec, func(i int) (*btree.Snap, func() error) {
		return s.snaps[i], func() error { return nil }
	})
}
