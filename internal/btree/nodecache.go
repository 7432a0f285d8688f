package btree

import (
	"sync"
	"sync/atomic"

	"repro/internal/pager"
)

// nodeCacheSize is the per-tree capacity (in nodes) of the shared
// decoded-node cache. At the default 1 KiB page size a decoded node is a few
// KiB, so this bounds the cache to roughly 10 MiB per tree — enough to hold
// the entire internal level plus the hot leaves of the paper's
// 150,000-object experiments.
const nodeCacheSize = 4096

// nodeCacheShards fixes the shard count; sharding keeps concurrent readers
// from serializing on one mutex (reads take an RLock on 1/16th of the map).
const nodeCacheShards = 16

// CacheStats is a point-in-time summary of a decoded-node cache.
type CacheStats struct {
	Hits    int64 // fetches served from the cache
	Misses  int64 // fetches that had to decode the page
	Entries int   // nodes currently cached
}

// nodeCache is the shared decoded-node cache of one tree: a sharded map
// from page id to the immutable decoded form of that page. It exploits the
// central MVCC invariant — a committed page is never modified in place, only
// superseded and eventually freed — so a decoded node can be shared by every
// reader, snapshot, and the writer without any copying or synchronization
// beyond the map itself. Coherence is maintained by invalidation at the two
// points where a page id's content can change hands:
//
//   - Tx.Publish installs the freshly committed nodes and drops the ids
//     it retired (their content is still valid for pinned snapshots, but the
//     entry will be refreshed at latest when the page id is reused);
//   - the bufferpool.Reclaimer's release hook drops a page id the moment the
//     page is freed, closing the reuse window: an id is always invalidated
//     before the allocator can hand it to a later mutation.
//
// A nil *nodeCache is valid and caches nothing; all methods are nil-safe so
// callers never branch. Only tests build a tree without a cache, as the
// reference side of the checks that the cache changes no answer and no
// count.
type nodeCache struct {
	shards   [nodeCacheShards]nodeCacheShard
	shardCap int // max entries per shard
	hits     atomic.Int64
	misses   atomic.Int64
}

type nodeCacheShard struct {
	mu sync.RWMutex
	m  map[pager.PageID]*node
}

func newNodeCache() *nodeCache {
	c := &nodeCache{shardCap: nodeCacheSize / nodeCacheShards}
	for i := range c.shards {
		c.shards[i].m = make(map[pager.PageID]*node)
	}
	return c
}

func (c *nodeCache) shard(id pager.PageID) *nodeCacheShard {
	return &c.shards[uint64(id)%nodeCacheShards]
}

// get returns the cached node for id, counting the hit or miss.
func (c *nodeCache) get(id pager.PageID) (*node, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shard(id)
	s.mu.RLock()
	n, ok := s.m[id]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return n, ok
}

// contains reports residency without touching the hit/miss counters. The
// scan prefetcher uses it to drop already-decoded children from a frontier
// batch; those probes are not fetches and must not distort cache stats.
func (c *nodeCache) contains(id pager.PageID) bool {
	if c == nil {
		return false
	}
	s := c.shard(id)
	s.mu.RLock()
	_, ok := s.m[id]
	s.mu.RUnlock()
	return ok
}

// put caches a decoded node. The node must be immutable from this point on
// (decoded from a committed page, or a fresh node being committed). When a
// shard is full an arbitrary resident entry is evicted first — random
// replacement is good enough here because the cache sits behind the buffer
// pool and a miss costs one decode, not an I/O.
func (c *nodeCache) put(n *node) {
	if c == nil {
		return
	}
	s := c.shard(n.id)
	s.mu.Lock()
	if _, ok := s.m[n.id]; !ok && len(s.m) >= c.shardCap {
		for id := range s.m {
			delete(s.m, id)
			break
		}
	}
	s.m[n.id] = n
	s.mu.Unlock()
}

// invalidate drops the entry for a page id, if any. Called when a commit
// retires the id and again when the reclaimer frees it.
func (c *nodeCache) invalidate(id pager.PageID) {
	if c == nil {
		return
	}
	s := c.shard(id)
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
}

// clear empties the cache (DropCache).
func (c *nodeCache) clear() {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		clear(s.m)
		s.mu.Unlock()
	}
}

// stats reports cumulative hit/miss counters and the current entry count.
func (c *nodeCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		st.Entries += len(s.m)
		s.mu.RUnlock()
	}
	return st
}
