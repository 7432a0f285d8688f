package btree

import (
	"fmt"

	"repro/internal/pager"
)

// Tx is one copy-on-write mutation in flight, holding the tree's writer
// mutex from Begin to Publish or Abort. Committed nodes are immutable: its
// Insert and Delete edits shadow each node on a changed path into a fresh
// page once, however many edits pass through it, and carry the root, height
// and count they add up to. Commit is Write, which puts every fresh page in
// the page file, then Publish, which makes the new version current and hands
// the superseded pages to the epoch reclaimer. Until Publish nothing is
// visible, so Abort, the way out after any error, just frees the op's pages.
type Tx struct {
	t         *Tree
	root      pager.PageID
	hgt       int
	count     int
	fresh     map[pager.PageID]*node // pages this op created, by id
	allocated []pager.PageID         // every page this op allocated (nodes + overflow)
	retired   []pager.PageID         // committed pages this op superseded
	discarded []pager.PageID         // fresh pages the op created then dropped
	pbuf      []byte                 // page image scratch for load
}

// Begin opens a transaction on the published version.
func (t *Tree) Begin() *Tx {
	t.wmu.Lock()
	v := t.cur.Load()
	return &Tx{t: t, root: v.root, hgt: v.hgt, count: v.count, fresh: make(map[pager.PageID]*node)}
}

// alloc allocates a page and records it for the abort path.
func (w *Tx) alloc() (pager.PageID, error) {
	id, err := w.t.f.Alloc()
	if err != nil {
		return pager.NilPage, err
	}
	w.allocated = append(w.allocated, id)
	return id, nil
}

// allocNode creates a fresh private node on a newly allocated page.
func (w *Tx) allocNode(leaf bool) (*node, error) {
	id, err := w.alloc()
	if err != nil {
		return nil, err
	}
	n := &node{id: id, leaf: leaf}
	w.fresh[id] = n
	return n, nil
}

// fetch returns the node for a page: the op's own fresh copy, else the
// committed node through load (the decoded form of a committed page serves
// readers just as well as the writer). Writes are not tracked.
func (w *Tx) fetch(id pager.PageID) (*node, error) {
	if n, ok := w.fresh[id]; ok {
		return n, nil
	}
	return w.t.load(id, &w.pbuf, nil)
}

// shadow returns a mutable private copy of n on a fresh page, retiring the
// committed page. Slice headers are copied into fresh backing arrays so
// in-place edits of the shadow never reach the committed node; the key and
// value byte slices themselves are shared — they are never mutated, only
// replaced. Shadowing a node the op already owns returns it unchanged.
func (w *Tx) shadow(n *node) (*node, error) {
	if _, ok := w.fresh[n.id]; ok {
		return n, nil
	}
	id, err := w.alloc()
	if err != nil {
		return nil, err
	}
	s := &node{id: id, leaf: n.leaf}
	s.keys = append(make([][]byte, 0, len(n.keys)+1), n.keys...)
	if n.leaf {
		s.vals = append(make([][]byte, 0, len(n.vals)+1), n.vals...)
	} else {
		s.children = append(make([]pager.PageID, 0, len(n.children)+1), n.children...)
	}
	w.fresh[id] = s
	w.retired = append(w.retired, n.id)
	return s, nil
}

// freeNode releases a node the mutation no longer needs: a committed node is
// retired (older snapshots may still read it), a fresh one is discarded (it
// was never visible and its page is freed at commit).
func (w *Tx) freeNode(n *node) {
	if _, ok := w.fresh[n.id]; ok {
		delete(w.fresh, n.id)
		w.discarded = append(w.discarded, n.id)
		return
	}
	w.retired = append(w.retired, n.id)
}

// Write, the first commit step, encodes every fresh node into its page.
func (w *Tx) Write() error {
	buf := make([]byte, w.t.f.PageSize())
	for _, n := range w.fresh {
		if err := n.encode(buf, w.t.noCompress); err != nil {
			return err
		}
		if err := w.t.f.Write(n.id, buf); err != nil {
			return err
		}
	}
	return nil
}

// Publish, the second, makes the new version current and retires the
// superseded pages to the reclaimer, which frees them once no pinned reader
// can reach them. A Tx that changed nothing publishes nothing. An error is a
// page the file refused to free, after the version is current.
func (w *Tx) Publish() error {
	t := w.t
	defer t.wmu.Unlock()
	if len(w.allocated) == 0 && len(w.retired) == 0 {
		return nil
	}
	nv := &version{root: w.root, hgt: w.hgt, count: w.count, epoch: t.cur.Load().epoch + 1}
	// Install the committed nodes in the shared cache (their pages are on
	// disk already, and their ids are unreachable until publish) and drop
	// the retired ids. A pinned reader may legitimately re-decode and
	// re-install a retired id after this — its content is still correct
	// for that reader — and the reclaimer's release hook drops the id
	// again, for good, the moment the page is freed for reuse.
	for _, n := range w.fresh {
		n.decodedBytes = n.encodedSize(t.noCompress) - headerSize
		t.ncache.put(n)
	}
	for _, id := range w.retired {
		t.ncache.invalidate(id)
	}
	err := t.rec.Commit(nv.epoch, w.retired, func() { t.cur.Store(nv) })
	for _, id := range w.discarded {
		if ferr := t.f.Free(id); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}

// Commit is Write then Publish, aborting when a page write fails.
func (w *Tx) Commit() error {
	if err := w.Write(); err != nil {
		return w.Abort(err)
	}
	return w.Publish()
}

// Abort undoes the op: every page it allocated is freed and the published
// version is left exactly as it was. The op's ids are dropped from the
// shared cache defensively — Publish only installs nodes after every page
// write succeeded, so nothing should be there, but a freed id must never
// linger in the cache once the allocator can reuse it. It returns cause for
// convenience.
func (w *Tx) Abort(cause error) error {
	for _, id := range w.allocated {
		w.t.ncache.invalidate(id)
		_ = w.t.f.Free(id)
	}
	w.allocated = nil
	w.t.wmu.Unlock()
	return cause
}

type splitResult struct {
	sep   []byte
	right pager.PageID
}

// Insert stores val under key in a transaction of its own.
func (t *Tree) Insert(key, val []byte) error {
	tx := t.Begin()
	if err := tx.Insert(key, val); err != nil {
		return tx.Abort(err)
	}
	return tx.Commit()
}

// Insert stores val under key, replacing any existing value. Keys and
// values are copied; the caller keeps ownership of its slices.
func (tx *Tx) Insert(key, val []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("btree: empty key")
	}
	if len(key) > tx.t.maxKeySize() {
		return fmt.Errorf("btree: key of %d bytes exceeds maximum %d", len(key), tx.t.maxKeySize())
	}
	stored, err := tx.storeValue(val)
	if err != nil {
		return err
	}
	newRoot, split, added, err := tx.insertRec(tx.root, key, stored)
	if err != nil {
		return err
	}
	if split != nil {
		// Grow a new root.
		nr, err := tx.allocNode(false)
		if err != nil {
			return err
		}
		nr.keys = [][]byte{split.sep}
		nr.children = []pager.PageID{newRoot, split.right}
		newRoot = nr.id
		tx.hgt++
	}
	tx.root = newRoot
	if added {
		tx.count++
	}
	return nil
}

// insertRec inserts into the subtree rooted at id and returns the id of the
// (always shadowed) replacement subtree root, plus a pending split if the
// replacement overflowed.
func (w *Tx) insertRec(id pager.PageID, key, stored []byte) (pager.PageID, *splitResult, bool, error) {
	n, err := w.fetch(id)
	if err != nil {
		return pager.NilPage, nil, false, err
	}
	if n.leaf {
		i, ok := findKey(n.keys, key)
		s, err := w.shadow(n)
		if err != nil {
			return pager.NilPage, nil, false, err
		}
		if ok {
			// Replacing a value can grow the node past the page
			// (a larger stored value); split like an insert would.
			if err := w.retireValue(s.vals[i]); err != nil {
				return pager.NilPage, nil, false, err
			}
			s.vals[i] = stored
			if w.t.fits(s) {
				return s.id, nil, false, nil
			}
			split, err := w.splitLeaf(s)
			return s.id, split, false, err
		}
		kcopy := append([]byte(nil), key...)
		s.insertAt(i, kcopy, stored)
		if w.t.fits(s) {
			return s.id, nil, true, nil
		}
		split, err := w.splitLeaf(s)
		return s.id, split, true, err
	}
	ci := findChild(n.keys, key)
	childID, split, added, err := w.insertRec(n.children[ci], key, stored)
	if err != nil {
		return pager.NilPage, nil, false, err
	}
	s, err := w.shadow(n)
	if err != nil {
		return pager.NilPage, nil, false, err
	}
	s.children[ci] = childID
	if split == nil {
		return s.id, nil, added, nil
	}
	s.insertAt(ci, split.sep, nil)
	s.insertChildAt(ci+1, split.right)
	if w.t.fits(s) {
		return s.id, nil, added, nil
	}
	sp, err := w.splitInternal(s)
	return s.id, sp, added, err
}

// splitLeaf moves the upper half of a (fresh) leaf into a new right sibling
// and returns the separator to push up.
func (w *Tx) splitLeaf(n *node) (*splitResult, error) {
	at := w.t.splitPoint(n)
	right, err := w.allocNode(true)
	if err != nil {
		return nil, err
	}
	right.keys = append(right.keys, n.keys[at:]...)
	right.vals = append(right.vals, n.vals[at:]...)
	n.keys = n.keys[:at:at]
	n.vals = n.vals[:at:at]
	sep := shortestSep(n.keys[len(n.keys)-1], right.keys[0])
	return &splitResult{sep: sep, right: right.id}, nil
}

// splitInternal promotes the middle key of a (fresh) internal node and moves
// the upper half into a new right sibling.
func (w *Tx) splitInternal(n *node) (*splitResult, error) {
	at := w.t.splitPoint(n)
	if at == len(n.keys) {
		at--
	}
	right, err := w.allocNode(false)
	if err != nil {
		return nil, err
	}
	sep := n.keys[at]
	right.keys = append(right.keys, n.keys[at+1:]...)
	right.children = append(right.children, n.children[at+1:]...)
	n.keys = n.keys[:at:at]
	n.children = n.children[: at+1 : at+1]
	return &splitResult{sep: sep, right: right.id}, nil
}

// splitPoint picks the index at which to split an over-full node: the
// median entry in count mode; in byte mode, the index that minimizes the
// larger serialized half, accounting for front compression (the first entry
// of the right half re-expands to its full key). The returned index is
// always in [1, len(keys)-1], so both halves are non-empty.
func (t *Tree) splitPoint(n *node) int {
	if t.cfg.MaxEntries > 0 {
		return max(1, min(len(n.keys)-1, len(n.keys)/2))
	}
	m := len(n.keys)
	sizes := make([]int, m)  // serialized size of entry i in situ
	expand := make([]int, m) // extra bytes when entry i starts a node
	var prev []byte
	total := 0
	for i, k := range n.keys {
		p := 0
		if !t.noCompress {
			p = commonPrefix(prev, k)
		}
		s := len(k) - p
		sz := uvarintLen(uint64(p)) + uvarintLen(uint64(s)) + s
		full := uvarintLen(0) + uvarintLen(uint64(len(k))) + len(k)
		if n.leaf {
			sz += uvarintLen(uint64(len(n.vals[i]))) + len(n.vals[i])
		} else {
			sz += 4
		}
		sizes[i] = sz
		expand[i] = full - (uvarintLen(uint64(p)) + uvarintLen(uint64(s)) + s)
		total += sz
		prev = k
	}
	best, bestCost := 1, int(^uint(0)>>1)
	left := sizes[0]
	for at := 1; at < m; at++ {
		var right int
		if n.leaf {
			right = total - left + expand[at]
		} else {
			// The separator keys[at] is promoted, not stored, and
			// the right half starts with keys[at+1].
			right = total - left - sizes[at]
			if at+1 < m {
				right += expand[at+1]
			}
		}
		if cost := max(left, right); cost < bestCost {
			best, bestCost = at, cost
		}
		left += sizes[at]
	}
	return best
}

// Delete removes key from the tree in a transaction of its own. It reports
// whether the key was present.
func (t *Tree) Delete(key []byte) (bool, error) {
	tx := t.Begin()
	found, err := tx.Delete(key)
	if err != nil {
		return false, tx.Abort(err)
	}
	return found, tx.Commit()
}

// Delete removes key. It reports whether the key was present.
func (w *Tx) Delete(key []byte) (bool, error) {
	// Probe first: a miss must not churn any pages.
	id := w.root
	for {
		n, err := w.fetch(id)
		if err != nil {
			return false, err
		}
		if n.leaf {
			if _, ok := findKey(n.keys, key); !ok {
				return false, nil
			}
			break
		}
		id = n.children[findChild(n.keys, key)]
	}

	// Shadow the root-to-leaf path and delete from the private copies.
	type frame struct {
		n  *node
		ci int // child index taken from this node
	}
	var path []frame
	root, err := w.fetch(w.root)
	if err != nil {
		return false, err
	}
	cur, err := w.shadow(root)
	if err != nil {
		return false, err
	}
	newRoot := cur.id
	for !cur.leaf {
		ci := findChild(cur.keys, key)
		child, err := w.fetch(cur.children[ci])
		if err != nil {
			return false, err
		}
		sc, err := w.shadow(child)
		if err != nil {
			return false, err
		}
		cur.children[ci] = sc.id
		path = append(path, frame{cur, ci})
		cur = sc
	}
	i, ok := findKey(cur.keys, key)
	if !ok {
		return false, fmt.Errorf("btree: key vanished between probe and delete")
	}
	if err := w.retireValue(cur.vals[i]); err != nil {
		return false, err
	}
	cur.removeAt(i)

	// Rebalance bottom-up.
	child := cur
	for lvl := len(path) - 1; lvl >= 0; lvl-- {
		parent, ci := path[lvl].n, path[lvl].ci
		if !w.t.underfull(child) {
			break
		}
		if err := w.rebalance(parent, ci); err != nil {
			return false, err
		}
		child = parent
	}
	// Collapse the root while it is an internal node with a single child.
	for {
		r, err := w.fetch(newRoot)
		if err != nil {
			return false, err
		}
		if r.leaf || len(r.keys) > 0 {
			break
		}
		newRoot = r.children[0]
		w.hgt--
		w.freeNode(r)
	}
	w.root = newRoot
	w.count--
	return true, nil
}

// rebalance restores the fill of parent.children[ci] by borrowing from or
// merging with an adjacent sibling. If neither is possible (byte mode with
// incompatible sizes) the node is left underfull, which affects space
// utilization but never correctness. parent and its ci-th child are already
// fresh; siblings are shadowed lazily, only when actually modified.
func (w *Tx) rebalance(parent *node, ci int) error {
	child, err := w.fetch(parent.children[ci])
	if err != nil {
		return err
	}
	// shadowAt gives a mutable sibling wired into the fresh parent.
	shadowAt := func(i int) (*node, error) {
		n, err := w.fetch(parent.children[i])
		if err != nil {
			return nil, err
		}
		s, err := w.shadow(n)
		if err != nil {
			return nil, err
		}
		parent.children[i] = s.id
		return s, nil
	}
	var rawLeft, rawRight *node
	if ci > 0 {
		if rawLeft, err = w.fetch(parent.children[ci-1]); err != nil {
			return err
		}
	}
	if ci < len(parent.children)-1 {
		if rawRight, err = w.fetch(parent.children[ci+1]); err != nil {
			return err
		}
	}

	// Borrow from the richer sibling while it stays above minimum. A
	// rotation can overflow the receiver (a long key moves in) or the
	// parent (the boundary separator is replaced by a longer one); both
	// cases are undone exactly.
	if rawLeft != nil && w.t.canDonate(rawLeft) {
		left, err := shadowAt(ci - 1)
		if err != nil {
			return err
		}
		rawLeft = left
		for w.t.underfull(child) && w.t.canDonate(left) {
			savedSep := parent.keys[ci-1]
			rotateRight(parent, ci-1, left, child)
			if !w.t.fits(child) || !w.t.fits(parent) {
				rotateLeft(parent, ci-1, left, child)
				parent.keys[ci-1] = savedSep
				break
			}
		}
		if !w.t.underfull(child) {
			return nil
		}
	}
	if rawRight != nil && w.t.canDonate(rawRight) {
		right, err := shadowAt(ci + 1)
		if err != nil {
			return err
		}
		rawRight = right
		for w.t.underfull(child) && w.t.canDonate(right) {
			savedSep := parent.keys[ci]
			rotateLeft(parent, ci, child, right)
			if !w.t.fits(child) || !w.t.fits(parent) {
				rotateRight(parent, ci, child, right)
				parent.keys[ci] = savedSep
				break
			}
		}
		if !w.t.underfull(child) {
			return nil
		}
	}
	// Merge with a sibling when the result fits one node. The absorbing
	// node must be fresh; the absorbed one is only read, then freed.
	if rawLeft != nil && w.t.canMerge(rawLeft, child, parent.keys[ci-1]) {
		left, err := shadowAt(ci - 1)
		if err != nil {
			return err
		}
		w.merge(parent, ci-1, left, child)
		return nil
	}
	if rawRight != nil && w.t.canMerge(child, rawRight, parent.keys[ci]) {
		w.merge(parent, ci, child, rawRight)
		return nil
	}
	return nil
}

// canDonate reports whether a node can give up one entry and stay at or
// above the minimum fill.
func (t *Tree) canDonate(n *node) bool {
	if len(n.keys) <= 1 {
		return false
	}
	if t.cfg.MaxEntries > 0 {
		return len(n.keys)-1 >= t.cfg.MaxEntries/2
	}
	// Approximate: dropping the largest entry must keep it above min.
	return n.encodedSize(t.noCompress)*(len(n.keys)-1)/len(n.keys) >= t.f.PageSize()/3
}

func (t *Tree) canMerge(l, r *node, sep []byte) bool {
	merged := l.encodedSize(t.noCompress) + r.encodedSize(t.noCompress) - headerSize
	if !l.leaf {
		merged += len(sep) + 6
	}
	if merged > t.f.PageSize() {
		return false
	}
	if t.cfg.MaxEntries > 0 {
		n := len(l.keys) + len(r.keys)
		if !l.leaf {
			n++
		}
		return n <= t.cfg.MaxEntries
	}
	return true
}

// rotateLeft moves the smallest entry of right into left (the child being
// refilled is left). si is the separator index in parent between the two.
// All three nodes must be fresh.
func rotateLeft(parent *node, si int, left, right *node) {
	if left.leaf {
		left.keys = append(left.keys, right.keys[0])
		left.vals = append(left.vals, right.vals[0])
		right.removeAt(0)
		parent.keys[si] = shortestSep(left.keys[len(left.keys)-1], right.keys[0])
	} else {
		left.keys = append(left.keys, parent.keys[si])
		left.children = append(left.children, right.children[0])
		parent.keys[si] = right.keys[0]
		right.removeAt(0)
		right.removeChildAt(0)
	}
}

// rotateRight moves the largest entry of left into right.
func rotateRight(parent *node, si int, left, right *node) {
	last := len(left.keys) - 1
	if left.leaf {
		right.insertAt(0, left.keys[last], left.vals[last])
		left.removeAt(last)
		parent.keys[si] = shortestSep(left.keys[len(left.keys)-1], right.keys[0])
	} else {
		right.insertAt(0, parent.keys[si], nil)
		right.insertChildAt(0, left.children[len(left.children)-1])
		parent.keys[si] = left.keys[last]
		left.removeAt(last)
		left.removeChildAt(len(left.children) - 1)
	}
}

// merge folds right into left (left must be fresh) and removes the separator
// at parent.keys[si]. right is released: retired when committed, discarded
// when it was created by this op.
func (w *Tx) merge(parent *node, si int, left, right *node) {
	if left.leaf {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
	} else {
		left.keys = append(left.keys, parent.keys[si])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	parent.removeAt(si)
	parent.removeChildAt(si + 1)
	w.freeNode(right)
}
