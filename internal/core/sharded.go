package core

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/btree"
	"repro/internal/store"
)

// Sharded is a group of U-index shards acting as one logical index: the key
// space is partitioned by class-code intervals (ShardMap), each shard is a
// complete Index with its own page file, buffer pool, node cache, and writer
// lock, and queries scatter over the relevant shards and merge in key order.
// All shards share one spec, coding, and object store; shard 0 is the
// prototype used for compilation, parsing, and key enumeration.
//
// Locking contract (the caller — the facade — serializes writers): a
// mutation must hold the writer locks of every shard it may touch. For a
// class-hierarchy index (path length 1) an object's keys are a pure function
// of its own class and attributes, so they all carry the object's class code
// at position 0 and land in exactly one shard — WriteShards returns that
// single shard. For a path index a mutation can ripple to entries of other
// objects reachable through reference chains, whose terminal classes (and
// hence shards) are unknown until enumeration — WriteShards returns every
// shard, restoring the whole-index exclusivity the unsharded engine has.
type Sharded struct {
	shards []*Index
	smap   *ShardMap
}

// NewSharded groups prebuilt shards under a shard map. All shards must share
// the prototype's spec/coding/store; the map's shard count must match.
func NewSharded(shards []*Index, smap *ShardMap) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: sharded index needs at least one shard")
	}
	if smap.Shards() != len(shards) {
		return nil, fmt.Errorf("core: shard map routes to %d shards, got %d", smap.Shards(), len(shards))
	}
	return &Sharded{shards: shards, smap: smap}, nil
}

// Prototype returns shard 0, the representative Index for compilation,
// query parsing, and spec/coding introspection.
func (sh *Sharded) Prototype() *Index { return sh.shards[0] }

// NumShards returns the shard count.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

// Shard returns shard i.
func (sh *Sharded) Shard(i int) *Index { return sh.shards[i] }

// Map returns the shard map.
func (sh *Sharded) Map() *ShardMap { return sh.smap }

// Covers reports whether an object of the given class can participate.
func (sh *Sharded) Covers(class string) bool { return sh.shards[0].Covers(class) }

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
		sh.shards[bits.TrailingZeros64(mask)].LockWrite()
	}
}

// UnlockShards releases the writer locks of the shards in the mask.
func (sh *Sharded) UnlockShards(mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		sh.shards[bits.TrailingZeros64(mask)].UnlockWrite()
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
// intersection is skipped and both outputs come back sorted (the batch-update
// clustering of Index.ApplyDiff); with either side empty there is nothing to
// intersect and the other side passes through in enumeration order.
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

// Build populates empty shards from the store with one bulk load per shard:
// keys are enumerated once, partitioned by shard (a per-shard subset of the
// globally sorted key list is itself sorted), and loaded bottom-up.
func (sh *Sharded) Build() error {
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
			continue // paths are unique; guard as Index.Build does
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

// ExecuteCtx runs a query across the shards, streaming matches to fn in
// global key order; semantics match Index.ExecuteCtx. Each shard scans a
// pinned version of its own tree; with more than one relevant shard the
// scans run concurrently and the per-shard result streams are merged by
// full-key byte order (shards interleave by attribute value, so a plain
// concatenation would be out of order). Stats.PagesRead is the summed
// per-shard distinct page count — shard files have independent page-id
// spaces (see ExecContext.ShardTracker).
func (sh *Sharded) ExecuteCtx(ctx context.Context, q Query, ec *ExecContext, fn func(Match) bool) (Stats, error) {
	return sh.execute(ctx, q, ec, fn, func(i int) (view, func() error) {
		s := sh.shards[i].tree.Snapshot()
		return s, s.Release
	})
}

// Execute runs a query across the shards and materializes the matches.
func (sh *Sharded) Execute(q Query, alg Algorithm, ec *ExecContext) ([]Match, Stats, error) {
	if ec == nil {
		ec = &ExecContext{}
	}
	ec.Algorithm = alg
	var out []Match
	stats, err := sh.ExecuteCtx(context.Background(), q, ec, func(m Match) bool {
		out = append(out, m)
		return true
	})
	return out, stats, err
}

// keyedMatch carries a match with its raw entry key for the merge.
type keyedMatch struct {
	key []byte
	m   Match
}

func (sh *Sharded) execute(ctx context.Context, q Query, ec *ExecContext, fn func(Match) bool, viewOf func(int) (view, func() error)) (Stats, error) {
	proto := sh.shards[0]
	n := len(sh.shards)
	p, err := proto.compile(q)
	if err != nil {
		return Stats{}, err
	}
	rel := sh.relevantShards(p)
	stats := Stats{Algorithm: ec.Algorithm, Intervals: len(p.intervals)}

	if len(rel) == 1 {
		// One relevant shard: stream straight to fn, no buffering.
		child := &ExecContext{Tracker: ec.ShardTracker(rel[0], n), Algorithm: ec.Algorithm}
		v, release := viewOf(rel[0])
		st, err := proto.runPlan(ctx, v, p, child, func(_ []byte, m Match) bool { return fn(m) })
		if rerr := release(); rerr != nil && err == nil {
			err = rerr
		}
		stats.EntriesScanned = st.EntriesScanned
		stats.Matches = st.Matches
		return sh.finish(ec, stats, err)
	}

	// Scatter: one goroutine per relevant shard, each collecting its
	// (key, match) stream under its own tracker and ExecContext.
	// Trackers are materialized up front — ShardTracker mutates the
	// shared context and must not race.
	for _, i := range rel {
		ec.ShardTracker(i, n)
	}
	results := make([][]keyedMatch, len(rel))
	shardStats := make([]Stats, len(rel))
	errs := make([]error, len(rel))
	var wg sync.WaitGroup
	for ri, i := range rel {
		wg.Add(1)
		go func(ri, i int) {
			defer wg.Done()
			child := &ExecContext{Tracker: ec.ShardTracker(i, n), Algorithm: ec.Algorithm}
			v, release := viewOf(i)
			st, err := proto.runPlan(ctx, v, p, child, func(key []byte, m Match) bool {
				results[ri] = append(results[ri], keyedMatch{key: append([]byte(nil), key...), m: m})
				return true
			})
			if rerr := release(); rerr != nil && err == nil {
				err = rerr
			}
			shardStats[ri] = st
			errs[ri] = err
		}(ri, i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return sh.finish(ec, stats, err)
		}
	}
	for _, st := range shardStats {
		stats.EntriesScanned += st.EntriesScanned
	}

	// Gather: n-way merge by full-key byte order.
	heads := make([]int, len(rel))
	for {
		best := -1
		for ri := range results {
			if heads[ri] >= len(results[ri]) {
				continue
			}
			if best < 0 || bytes.Compare(results[ri][heads[ri]].key, results[best][heads[best]].key) < 0 {
				best = ri
			}
		}
		if best < 0 {
			break
		}
		m := results[best][heads[best]].m
		heads[best]++
		stats.Matches++
		if !fn(m) {
			break
		}
	}
	return sh.finish(ec, stats, nil)
}

// finish folds a sharded execution's counters into the context, mirroring
// runPlan's accumulation: per-query counters add up, page counters are the
// context's cumulative distinct counts (summed across shard trackers).
func (sh *Sharded) finish(ec *ExecContext, stats Stats, err error) (Stats, error) {
	reads, hits, misses, bytesDec, prefetch := ec.pageCounts()
	stats.PagesRead = reads
	stats.NodeCacheHits = hits
	stats.NodeCacheMisses = misses
	stats.BytesDecoded = bytesDec
	stats.PrefetchIssued = prefetch
	ec.Stats.Algorithm = ec.Algorithm
	ec.Stats.Intervals += stats.Intervals
	ec.Stats.EntriesScanned += stats.EntriesScanned
	ec.Stats.Matches += stats.Matches
	ec.Stats.PagesRead = reads
	ec.Stats.NodeCacheHits = hits
	ec.Stats.NodeCacheMisses = misses
	ec.Stats.BytesDecoded = bytesDec
	ec.Stats.PrefetchIssued = prefetch
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
func (s *ShardedSnap) ExecuteCtx(ctx context.Context, q Query, ec *ExecContext, fn func(Match) bool) (Stats, error) {
	return s.sh.execute(ctx, q, ec, fn, func(i int) (view, func() error) {
		return s.snaps[i], func() error { return nil }
	})
}
