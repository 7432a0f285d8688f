package btree

import (
	"bytes"
	"fmt"

	"repro/internal/pager"
)

// EntrySource yields key/value pairs in strictly ascending key order for
// BulkLoad. It returns ok=false when exhausted.
type EntrySource func() (key, val []byte, ok bool, err error)

// SliceSource adapts in-memory sorted entries to an EntrySource.
func SliceSource(keys, vals [][]byte) EntrySource {
	i := 0
	return func() ([]byte, []byte, bool, error) {
		if i >= len(keys) {
			return nil, nil, false, nil
		}
		var v []byte
		if vals != nil {
			v = vals[i]
		}
		k := keys[i]
		i++
		return k, v, true, nil
	}
}

// bulkFillFraction leaves headroom in bulk-loaded nodes so that subsequent
// inserts do not immediately split every page.
const bulkFillFraction = 0.90

// BulkLoad builds the tree bottom-up from a sorted entry stream. It is far
// faster than repeated Insert for large builds (the 150,000-object databases
// of the paper's Section 5 experiments) and produces near-optimally packed
// pages. The tree must be empty. The build is one transaction: nodes are
// allocated, encoded, and written as they seal (never held in memory beyond
// the level being packed), and the finished tree is published as one new
// version at the end — a concurrent reader sees the empty tree until then.
func (t *Tree) BulkLoad(src EntrySource) error {
	w := t.Begin()
	if w.count != 0 {
		return w.Abort(fmt.Errorf("btree: BulkLoad requires an empty tree"))
	}

	limit := int(float64(t.f.PageSize()) * bulkFillFraction)
	maxEntries := t.cfg.MaxEntries
	if maxEntries > 0 {
		maxEntries = max(2, maxEntries*9/10)
	}

	// seal allocates a page for the packed node and writes it out.
	buf := make([]byte, t.f.PageSize())
	seal := func(n *node) (pager.PageID, error) {
		id, err := w.alloc()
		if err != nil {
			return pager.NilPage, err
		}
		n.id = id
		if err := n.encode(buf, t.noCompress); err != nil {
			return pager.NilPage, err
		}
		return id, t.f.Write(id, buf)
	}

	// Level 0: pack leaves.
	type built struct {
		id       pager.PageID
		firstKey []byte
		lastKey  []byte
	}
	var level []built
	var prevKey []byte
	cur := &node{leaf: true}
	count := 0
	sealLeaf := func() error {
		id, err := seal(cur)
		if err != nil {
			return err
		}
		level = append(level, built{id, cur.keys[0], cur.keys[len(cur.keys)-1]})
		cur = &node{leaf: true}
		return nil
	}
	for {
		key, val, ok, err := src()
		if err != nil {
			return w.Abort(err)
		}
		if !ok {
			break
		}
		if len(key) == 0 || len(key) > t.maxKeySize() {
			return w.Abort(fmt.Errorf("btree: BulkLoad key of %d bytes invalid", len(key)))
		}
		if prevKey != nil && bytes.Compare(prevKey, key) >= 0 {
			return w.Abort(fmt.Errorf("btree: BulkLoad keys not strictly ascending at %q", key))
		}
		stored, err := w.storeValue(val)
		if err != nil {
			return w.Abort(err)
		}
		kcopy := append([]byte(nil), key...)
		cur.keys = append(cur.keys, kcopy)
		cur.vals = append(cur.vals, stored)
		count++
		prevKey = kcopy
		sz := cur.encodedSize(t.noCompress)
		if sz > t.f.PageSize() && len(cur.keys) > 1 {
			// The soft fill limit leaves headroom, but one large entry
			// (a near-threshold inline value) can still push the leaf
			// past the page itself; move it into the next leaf so a
			// sealed node always fits its page.
			last := len(cur.keys) - 1
			k, vv := cur.keys[last], cur.vals[last]
			cur.keys = cur.keys[:last:last]
			cur.vals = cur.vals[:last:last]
			if err := sealLeaf(); err != nil {
				return w.Abort(err)
			}
			cur.keys = append(cur.keys, k)
			cur.vals = append(cur.vals, vv)
			sz = cur.encodedSize(t.noCompress)
		}
		full := sz > limit
		if maxEntries > 0 {
			full = full || len(cur.keys) >= maxEntries
		}
		if full {
			if err := sealLeaf(); err != nil {
				return w.Abort(err)
			}
		}
	}
	if len(cur.keys) > 0 {
		if err := sealLeaf(); err != nil {
			return w.Abort(err)
		}
	}
	if len(level) == 0 {
		// Empty input: keep the published empty tree as is.
		return w.Abort(nil)
	}

	// Separator between adjacent leaves i-1 and i: the shortest key above
	// everything in leaf i-1 and at most the first key of leaf i.
	seps := make([][]byte, len(level)) // seps[i] separates level[i-1] | level[i]
	for i := 1; i < len(level); i++ {
		seps[i] = shortestSep(level[i-1].lastKey, level[i].firstKey)
	}

	// Upper levels: pack (separator, child) pairs into internal nodes;
	// when a node fills, the separator at the boundary is promoted to the
	// level above instead of stored.
	height := 1
	for len(level) > 1 {
		var nextLevel []built
		var promoted [][]byte
		nd := &node{leaf: false}
		nd.children = append(nd.children, level[0].id)
		for i := 1; i < len(level); i++ {
			sep, child := seps[i], level[i].id
			nd.keys = append(nd.keys, sep)
			nd.children = append(nd.children, child)
			full := nd.encodedSize(t.noCompress) > limit
			if maxEntries > 0 {
				full = full || len(nd.keys) > maxEntries
			}
			if full && len(nd.keys) > 1 {
				// Undo, seal the node, promote the separator.
				nd.keys = nd.keys[:len(nd.keys)-1]
				nd.children = nd.children[:len(nd.children)-1]
				id, err := seal(nd)
				if err != nil {
					return w.Abort(err)
				}
				nextLevel = append(nextLevel, built{id, nil, nil})
				promoted = append(promoted, sep)
				nd = &node{leaf: false}
				nd.children = append(nd.children, child)
			}
		}
		id, err := seal(nd)
		if err != nil {
			return w.Abort(err)
		}
		nextLevel = append(nextLevel, built{id, nil, nil})
		// promoted[j] separates nextLevel[j] | nextLevel[j+1]; realign
		// to the seps convention (seps[i] separates level[i-1]|level[i]).
		ns := make([][]byte, len(nextLevel))
		copy(ns[1:], promoted)
		level, seps = nextLevel, ns
		height++
	}
	// The pre-allocated empty root is superseded by the built tree.
	w.retired = append(w.retired, w.root)
	w.root, w.hgt, w.count = level[0].id, height, count
	return w.Commit()
}
