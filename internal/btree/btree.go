// Package btree implements the single uniform structure underlying the
// U-index (Gudes, Section 3.2): a B+-tree over variable-length byte-string
// keys with front compression inside every node, stored in fixed-size pages.
//
// The tree supports two capacity modes. In byte mode (the default) a node
// holds as many entries as fit its serialized, front-compressed page image —
// so compression genuinely raises fanout, which is the effect the paper's
// large experiment depends on. In count mode (Config.MaxEntries > 0) a node
// holds at most MaxEntries keys, reproducing the paper's first experiment
// ("we used a small node size m = 10", Section 5).
//
// All reads are accounted through a pager.Tracker so the benchmark harness
// can report the paper's "number of pages read / nodes visited" metric.
package btree

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bufferpool"
	"repro/internal/pager"
)

// ErrSnapshotReleased is returned by operations on a released Snap.
var ErrSnapshotReleased = errors.New("btree: snapshot released")

// Config controls tree geometry.
type Config struct {
	// MaxEntries, when positive, caps every node at MaxEntries keys
	// (count mode). When zero, nodes are limited by page size only
	// (byte mode).
	MaxEntries int
	// NoCompression disables front compression of keys (ablation: the
	// paper's storage argument in Section 4.2 is that compression makes
	// the long composite keys nearly free; turning it off quantifies
	// that claim).
	NoCompression bool
}

// version is one immutable published state of the tree. Mutations never
// modify a version's pages: every commit builds fresh pages along the
// changed root-to-leaf path (copy-on-write), writes them to the page file,
// and atomically publishes a new version. Readers load the pointer once and
// traverse a frozen tree.
type version struct {
	root  pager.PageID
	hgt   int // 1 = root is a leaf
	count int
	epoch uint64
}

// Tree is a multi-version B+-tree. Writers never block readers: mutations
// (a Tx of Insert and Delete edits, BulkLoad) are serialized by a per-tree
// writer mutex and commit by publishing a new immutable version via an
// atomic pointer, while
// read operations pin the current version (a cheap epoch registration in the
// bufferpool.Reclaimer), traverse it without any tree-level lock, and unpin.
// Superseded pages are retired to the Reclaimer and freed once no snapshot
// pins an epoch that can reach them — with no snapshots open, space is
// reclaimed at commit, so the page footprint matches an update-in-place
// tree.
//
// Snapshot returns a long-lived pinned version with the read surface; the
// per-operation reads below are one-shot snapshots. The decoded-node cache
// (ncache) is shared by every reader, snapshot, and the writer: committed
// pages are immutable, so their decoded form can be handed out without
// copying. Coherence is by invalidation — commit drops retired ids and the
// Reclaimer's release hook drops an id the moment its page is freed, before
// the allocator can reuse it (nodecache.go).
type Tree struct {
	wmu        sync.Mutex // serializes mutations; commit publishes cur
	f          pager.File
	cfg        Config
	meta       pager.PageID
	cur        atomic.Pointer[version]
	rec        *bufferpool.Reclaimer
	ncache     *nodeCache   // shared decoded-node cache
	pf         prefetchPool // batched read-ahead surface of f; nil = no prefetch
	noCompress bool
}

const (
	treeMagic = 0x55425452 // "UBTR"
)

// Create initializes a new tree in the (fresh region of the) given page
// file and returns it.
func Create(f pager.File, cfg Config) (*Tree, error) {
	if cfg.MaxEntries == 1 {
		return nil, fmt.Errorf("btree: MaxEntries must be 0 or >= 2")
	}
	t := newTreeOn(f, cfg)
	metaID, err := f.Alloc()
	if err != nil {
		return nil, err
	}
	t.meta = metaID
	rootID, err := f.Alloc()
	if err != nil {
		return nil, err
	}
	// The empty root leaf is written out immediately: readers traverse
	// published versions straight from the page file.
	root := &node{id: rootID, leaf: true}
	buf := make([]byte, f.PageSize())
	if err := root.encode(buf, t.noCompress); err != nil {
		return nil, err
	}
	if err := f.Write(rootID, buf); err != nil {
		return nil, err
	}
	t.cur.Store(&version{root: rootID, hgt: 1})
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open loads a tree previously persisted (via Flush or Close) at the given
// meta page of the page file. Geometry (MaxEntries, compression) comes from
// the meta page.
func Open(f pager.File, meta pager.PageID) (*Tree, error) {
	buf := make([]byte, f.PageSize())
	if err := f.Read(meta, buf); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint32(buf[0:]) != treeMagic {
		return nil, fmt.Errorf("btree: page %d is not a tree meta page", meta)
	}
	t := newTreeOn(f, Config{MaxEntries: int(binary.BigEndian.Uint32(buf[20:])), NoCompression: buf[24] == 1})
	t.meta = meta
	t.cur.Store(&version{
		root:  pager.PageID(binary.BigEndian.Uint32(buf[4:])),
		hgt:   int(binary.BigEndian.Uint32(buf[8:])),
		count: int(binary.BigEndian.Uint64(buf[12:])),
		// The epoch persists across reopen so that epochs keep increasing
		// monotonically over the file's whole lifetime (meta pages written
		// before the epoch field carry zero, which reads back as the old
		// behaviour of restarting at 0).
		epoch: binary.BigEndian.Uint64(buf[28:]),
	})
	return t, nil
}

// newTreeOn builds the unpublished in-memory tree over f: the shared
// decoded-node cache with its release hook registered on the reclaimer
// (before the tree is shared, so no locking races), and frontier prefetch
// whenever f offers batched read-ahead.
func newTreeOn(f pager.File, cfg Config) *Tree {
	t := &Tree{f: f, cfg: cfg, rec: bufferpool.NewReclaimer(f), ncache: newNodeCache(), noCompress: cfg.NoCompression}
	t.rec.SetReleaseHook(t.ncache.invalidate)
	t.pf, _ = f.(prefetchPool)
	return t
}

// NodeCacheStats reports the shared decoded-node cache's cumulative hit and
// miss counters and its current size.
func (t *Tree) NodeCacheStats() CacheStats { return t.ncache.stats() }

// MetaPage returns the page id holding the tree's metadata; pass it to Open.
func (t *Tree) MetaPage() pager.PageID { return t.meta }

// writeMeta persists the published version to the tree's current meta page
// in place. Only Create may use it, when the meta page is freshly allocated
// and cannot be part of any durable checkpoint yet; all later metadata
// writes go through writeMetaCOW.
func (t *Tree) writeMeta() error {
	v := t.cur.Load()
	buf := make([]byte, t.f.PageSize())
	binary.BigEndian.PutUint32(buf[0:], treeMagic)
	binary.BigEndian.PutUint32(buf[4:], uint32(v.root))
	binary.BigEndian.PutUint32(buf[8:], uint32(v.hgt))
	binary.BigEndian.PutUint64(buf[12:], uint64(v.count))
	binary.BigEndian.PutUint32(buf[20:], uint32(t.cfg.MaxEntries))
	if t.noCompress {
		buf[24] = 1
	}
	binary.BigEndian.PutUint64(buf[28:], v.epoch)
	return t.f.Write(t.meta, buf)
}

// writeMetaCOW persists the metadata shadow-style: it writes a freshly
// allocated meta page and frees the previous one, so a page that a durable
// checkpoint can reach is never overwritten. MetaPage therefore changes on
// every Flush; callers persisting the tree must record the new id (the
// uindex facade publishes it through the page file's checkpoint payload).
// Requires t.wmu.
func (t *Tree) writeMetaCOW() error {
	id, err := t.f.Alloc()
	if err != nil {
		return err
	}
	old := t.meta
	t.meta = id
	if err := t.writeMeta(); err != nil {
		t.meta = old
		_ = t.f.Free(id)
		return err
	}
	return t.f.Free(old)
}

// pin registers a one-operation snapshot: it atomically loads the current
// version and pins its epoch, so a concurrent commit cannot free the pages
// the operation is about to traverse. The returned release func must be
// called when the operation finishes.
func (t *Tree) pin() (*version, func() error) {
	var v *version
	epoch := t.rec.Pin(func() uint64 {
		v = t.cur.Load()
		return v.epoch
	})
	return v, func() error { return t.rec.Unpin(epoch) }
}

// readOp is the per-operation state of one read-only traversal: one page
// image scratch buffer reused across every node the operation decodes. A
// walk descends into each child at most once, so it never asks for a page
// twice and needs no private map of the nodes it has seen.
type readOp struct {
	t    *Tree
	pbuf []byte // page image scratch; decodeNode copies out of it
}

// fetch returns the decoded node for a page, recording the access in the
// tracker first — the logical page counts of the paper's experiments are
// computed before any cache gets a say, which is what keeps them identical
// with the cache on, off, or cold.
func (o *readOp) fetch(id pager.PageID, tr *pager.Tracker) (*node, error) {
	tr.Touch(id)
	return o.t.load(id, &o.pbuf, tr)
}

// load returns the decoded node for a page whose access the caller has
// already counted: a shared-cache hit (free), or a read into *pbuf
// (allocated on first use, reused after), a full decode, and an install in
// the shared cache for every later reader. The tracker learns which.
func (t *Tree) load(id pager.PageID, pbuf *[]byte, tr *pager.Tracker) (*node, error) {
	if n, ok := t.ncache.get(id); ok {
		tr.NoteNodeCache(true, 0)
		return n, nil
	}
	if *pbuf == nil {
		*pbuf = make([]byte, t.f.PageSize())
	}
	if err := t.f.Read(id, *pbuf); err != nil {
		return nil, err
	}
	n, err := decodeNode(id, *pbuf)
	if err != nil {
		return nil, err
	}
	tr.NoteNodeCache(false, n.decodedBytes)
	t.ncache.put(n)
	return n, nil
}

// fits reports whether the node respects the capacity limit.
func (t *Tree) fits(n *node) bool {
	if t.cfg.MaxEntries > 0 {
		return len(n.keys) <= t.cfg.MaxEntries && n.encodedSize(t.noCompress) <= t.f.PageSize()
	}
	return n.encodedSize(t.noCompress) <= t.f.PageSize()
}

// underfull reports whether a non-root node is below the minimum fill.
func (t *Tree) underfull(n *node) bool {
	if t.cfg.MaxEntries > 0 {
		return len(n.keys) < t.cfg.MaxEntries/2
	}
	return n.encodedSize(t.noCompress) < t.f.PageSize()/3
}

// maxKeySize is the largest key the tree accepts; a page must be able to
// hold at least two uncompressed entries.
func (t *Tree) maxKeySize() int {
	return (t.f.PageSize() - headerSize) / 3
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return t.cur.Load().count }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.cur.Load().hgt }

// Epoch returns the epoch of the current published version; it advances by
// one per published transaction.
func (t *Tree) Epoch() uint64 { return t.cur.Load().epoch }

// Flush persists the tree metadata to the page file. Node pages are written
// at commit time (copy-on-write), so the metadata is all Flush has left to
// do; Open at MetaPage restores the flushed version. The metadata is
// written copy-on-write — MetaPage returns a new id after every Flush — so
// that a crash-consistent checkpoint of the page file never has a reachable
// page overwritten underneath it.
func (t *Tree) Flush() error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.writeMetaCOW()
}

// DropCache empties the tree's shared decoded-node cache, so the next reads
// decode from the page file. Benchmarks call it between build and
// measurement to model a cold cache; page-level caching across reads
// remains the buffer pool's job. It writes nothing: Flush persists.
func (t *Tree) DropCache() { t.ncache.clear() }

// Get returns the value stored under key. The returned slice is owned by
// the caller.
func (t *Tree) Get(key []byte, tr *pager.Tracker) ([]byte, bool, error) {
	v, release := t.pin()
	defer release()
	return t.getAt(v, key, tr)
}

// getAt is the point-lookup descent. It reads pages the way every scan does
// (load): a shared-cache hit, or a full decode installed in the cache.
func (t *Tree) getAt(v *version, key []byte, tr *pager.Tracker) ([]byte, bool, error) {
	var pbuf []byte
	id := v.root
	for {
		tr.Touch(id)
		n, err := t.load(id, &pbuf, tr)
		if err != nil {
			return nil, false, err
		}
		if !n.leaf {
			id = n.children[findChild(n.keys, key)]
			continue
		}
		i, ok := findKey(n.keys, key)
		if !ok {
			return nil, false, nil
		}
		val, err := t.loadValue(n.vals[i], tr)
		if err != nil {
			return nil, false, err
		}
		// Copy out: the stored value aliases a node shared by every reader.
		return append([]byte(nil), val...), true, nil
	}
}

// findChild returns the index of the child subtree that may contain key:
// the first i with key < keys[i], or len(keys).
func findChild(keys [][]byte, key []byte) int {
	return sort.Search(len(keys), func(i int) bool {
		return bytes.Compare(key, keys[i]) < 0
	})
}

// findKey returns the position of key in keys (or where it would be
// inserted) and whether it is present.
func findKey(keys [][]byte, key []byte) (int, bool) {
	i := sort.Search(len(keys), func(i int) bool {
		return bytes.Compare(keys[i], key) >= 0
	})
	return i, i < len(keys) && bytes.Equal(keys[i], key)
}

// shortestSep returns the shortest byte string s with a < s <= b. It is
// used as the separator pushed up on a leaf split (the paper's CG-tree
// implementation calls the analogous feature "best splitting key search";
// suffix truncation keeps internal nodes dense for both structures).
func shortestSep(a, b []byte) []byte {
	i := commonPrefix(a, b)
	if i == len(b) {
		// b <= a contradicts a < b; only possible when b is a prefix
		// of a, which also contradicts a < b. Defensive copy of b.
		return append([]byte(nil), b...)
	}
	return append([]byte(nil), b[:i+1]...)
}

// ctxErr reports a context's cancellation; a nil context never cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// PageCount returns the number of tree pages (internal + leaf), excluding
// the meta page and overflow chains. It walks the tree (Stats).
func (t *Tree) PageCount() (int, error) {
	st, err := t.Stats()
	if err != nil {
		return 0, err
	}
	return st.InternalNodes + st.LeafNodes, nil
}

// TreeStats summarizes the physical shape of the tree.
type TreeStats struct {
	Height        int
	InternalNodes int
	LeafNodes     int
	Entries       int
	// LeafFill is the mean serialized fill fraction of leaf pages (count
	// mode reports entries/MaxEntries instead).
	LeafFill float64
	// BytesPerEntry is the mean serialized leaf bytes per entry — the
	// number front compression drives down.
	BytesPerEntry float64
	// OverflowPages counts the pages held by value overflow chains.
	OverflowPages int
}

// Stats walks the tree and reports its physical shape. It is the one
// full-tree walk: PageCount and the baselines' footprints read it.
func (t *Tree) Stats() (TreeStats, error) {
	v, release := t.pin()
	defer release()
	op := &readOp{t: t}
	st := TreeStats{Height: v.hgt, Entries: v.count}
	var fill, size float64
	var walk func(id pager.PageID) error
	walk = func(id pager.PageID) error {
		n, err := op.fetch(id, nil)
		if err != nil {
			return err
		}
		if n.leaf {
			st.LeafNodes++
			for _, val := range n.vals {
				st.OverflowPages += t.overflowPages(val)
			}
			sz := n.encodedSize(t.noCompress)
			size += float64(sz - headerSize)
			if t.cfg.MaxEntries > 0 {
				fill += float64(len(n.keys)) / float64(t.cfg.MaxEntries)
			} else {
				fill += float64(sz) / float64(t.f.PageSize())
			}
			return nil
		}
		st.InternalNodes++
		for _, c := range n.children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(v.root); err != nil {
		return st, err
	}
	if st.LeafNodes > 0 {
		st.LeafFill = fill / float64(st.LeafNodes)
	}
	if st.Entries > 0 {
		st.BytesPerEntry = size / float64(st.Entries)
	}
	return st, nil
}
