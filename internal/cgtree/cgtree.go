// Package cgtree implements the CG-tree of Kilger and Moerkotte ("Indexing
// Multiple Sets", VLDB 1994), the comparator structure of the U-index
// paper's Section 5 experiments.
//
// The CG-tree is the set-grouping counterpoint to the U-index's
// value-grouping: one shared B+-tree whose leaf level clusters each set's
// entries contiguously in key order (the H-tree behaviour), while the upper
// levels are shared between sets (the economy the CG-tree adds over
// H-trees). We realize it as a composite-key B+-tree ordered by
// (set, key, oid):
//
//   - every set's data is one contiguous key-ordered run — range queries on
//     one set touch only pages of that set ("link pointers between leaf
//     pages of the same set" follow implicitly from leaf adjacency);
//   - adjacent sets share boundary pages ("leaf node sharing");
//   - only existing entries occupy space ("saving only non-NULL references
//     in directory nodes");
//   - separator keys are suffix-truncated ("best splitting key search").
//
// A multi-set query performs one descent per queried set with a shared page
// tracker, so directory pages common to several descents are counted once —
// exactly the buffered-query cost model of the paper. This reproduces the
// published cost behaviour: cheap set-contiguous range scans (CG wins large
// ranges on few sets), per-set descent overhead that grows linearly with
// the number of queried sets (CG loses exact-match and many-set queries),
// and indifference to whether the queried sets are adjacent. Leaf-page
// balancing is not implemented, matching the paper's own CG-tree
// re-implementation ("The only feature that was not implemented was the
// balancing of leaf pages", Section 5.1).
package cgtree

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/btree"
	"repro/internal/encoding"
	"repro/internal/pager"
)

// SetID identifies one set (class) in the index.
type SetID uint16

// Config mirrors btree.Config.
type Config struct {
	MaxEntries int
}

// Tree is a CG-tree.
type Tree struct {
	t *btree.Tree
}

// Stats reports the cost of one query.
type Stats struct {
	PagesRead      int
	EntriesScanned int
	Matches        int
}

// New creates an empty CG-tree in the page file.
func New(f pager.File, cfg Config) (*Tree, error) {
	t, err := btree.Create(f, btree.Config{MaxEntries: cfg.MaxEntries})
	if err != nil {
		return nil, err
	}
	return &Tree{t: t}, nil
}

// entryKey builds the composite (set, key, oid) key.
func entryKey(set SetID, key []byte, oid encoding.OID) []byte {
	out := make([]byte, 0, 2+len(key)+4)
	out = binary.BigEndian.AppendUint16(out, uint16(set))
	out = append(out, key...)
	out = binary.BigEndian.AppendUint32(out, uint32(oid))
	return out
}

// parseEntry splits a composite key back into its parts. keyLen is the
// fixed length of the key portion.
func parseEntry(k []byte, keyLen int) (SetID, []byte, encoding.OID, error) {
	if len(k) != 2+keyLen+4 {
		return 0, nil, 0, fmt.Errorf("cgtree: entry of %d bytes, want %d", len(k), 2+keyLen+4)
	}
	set := SetID(binary.BigEndian.Uint16(k))
	key := k[2 : 2+keyLen]
	oid := encoding.OID(binary.BigEndian.Uint32(k[2+keyLen:]))
	return set, key, oid, nil
}

// Insert adds one (set, key, oid) entry.
func (c *Tree) Insert(set SetID, key []byte, oid encoding.OID) error {
	return c.t.Insert(entryKey(set, key, oid), nil)
}

// Delete removes one entry. It reports whether the entry existed.
func (c *Tree) Delete(set SetID, key []byte, oid encoding.OID) (bool, error) {
	return c.t.Delete(entryKey(set, key, oid))
}

// Entry is one (set, key, oid) item for bulk loading.
type Entry struct {
	Set SetID
	Key []byte
	OID encoding.OID
}

// BulkLoad builds the tree from entries; they are loaded in (set, key, oid)
// order and must be provided sorted that way (workload generators sort
// before calling).
func (c *Tree) BulkLoad(entries []Entry) error {
	i := 0
	return c.t.BulkLoad(func() ([]byte, []byte, bool, error) {
		if i >= len(entries) {
			return nil, nil, false, nil
		}
		e := entries[i]
		i++
		return entryKey(e.Set, e.Key, e.OID), nil, true, nil
	})
}

// Len returns the number of entries.
func (c *Tree) Len() int { return c.t.Len() }

// PageCount returns the number of pages in the tree.
func (c *Tree) PageCount() (int, error) { return c.t.PageCount() }

// Height returns the tree height.
func (c *Tree) Height() int { return c.t.Height() }

// DropCache empties the tree's decoded-node cache.
func (c *Tree) DropCache() { c.t.DropCache() }

// Result is one matched entry.
type Result struct {
	Set SetID
	OID encoding.OID
}

// ExactMatch retrieves the object ids with the given key value in each of
// the queried sets: one descent per set over the shared directory.
func (c *Tree) ExactMatch(key []byte, sets []SetID, tr *pager.Tracker) ([]Result, Stats, error) {
	return c.query(key, key, sets, tr)
}

// RangeQuery retrieves the object ids with key in [lo, hi] (inclusive) in
// each of the queried sets. Each set's run is contiguous, so the per-set
// cost is proportional to that set's data in range — the set-grouping
// advantage.
func (c *Tree) RangeQuery(lo, hi []byte, sets []SetID, tr *pager.Tracker) ([]Result, Stats, error) {
	return c.query(lo, hi, sets, tr)
}

func (c *Tree) query(lo, hi []byte, sets []SetID, tr *pager.Tracker) ([]Result, Stats, error) {
	if tr == nil {
		tr = pager.NewTracker()
	}
	if len(lo) != len(hi) {
		return nil, Stats{}, fmt.Errorf("cgtree: range bounds of different lengths")
	}
	keyLen := len(lo)
	var out []Result
	var stats Stats
	// One descent per queried set (the CG-tree's per-set directory
	// pointers), sharing the tracker so common directory pages are read
	// once. Each descent scans only the set's contiguous run.
	for _, s := range sets {
		ivLo := make([]byte, 0, 2+keyLen)
		ivLo = binary.BigEndian.AppendUint16(ivLo, uint16(s))
		ivLo = append(ivLo, lo...)
		ivHi := make([]byte, 0, 2+keyLen+5)
		ivHi = binary.BigEndian.AppendUint16(ivHi, uint16(s))
		ivHi = append(ivHi, hi...)
		// Inclusive hi: pad past any 4-byte oid suffix.
		ivHi = append(ivHi, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
		err := c.t.Scan(context.Background(), ivLo, ivHi, tr, func(k, _ []byte) ([]byte, bool, error) {
			stats.EntriesScanned++
			set, _, oid, err := parseEntry(k, keyLen)
			if err != nil {
				return nil, true, err
			}
			out = append(out, Result{Set: set, OID: oid})
			stats.Matches++
			return nil, false, nil
		})
		if err != nil {
			return nil, stats, err
		}
	}
	stats.PagesRead = tr.Reads()
	return out, stats, nil
}
