// Package chtree implements the classic class-hierarchy index (CH-tree) of
// Kim, Kim and Dale, the first baseline of the U-index paper's Section 2: a
// key-grouped B+-tree whose leaf record for an attribute value holds a set
// directory — for every class in the indexed hierarchy, the list of object
// ids with that value.
//
// The CH-tree "attempts to store all entries with the same key in one leaf
// page", so an exact-match lookup is a single descent plus the record pages
// — its strength — while a query touching few classes still reads every
// class's object ids for each key in range — its weakness ("Range queries
// then scan pages which may not be relevant to the query"). Long records
// spill into overflow pages, whose reads are charged to the query tracker.
package chtree

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/encoding"
	"repro/internal/pager"
)

// SetID identifies one class (set) in the directory.
type SetID uint16

// Config mirrors btree.Config.
type Config struct {
	MaxEntries int
}

// Tree is a CH-tree.
type Tree struct {
	t *btree.Tree
}

// Stats reports the cost of one query.
type Stats struct {
	PagesRead      int
	EntriesScanned int // directory entries (class lists) inspected
	Matches        int
}

// New creates an empty CH-tree in the page file.
func New(f pager.File, cfg Config) (*Tree, error) {
	t, err := btree.Create(f, btree.Config{MaxEntries: cfg.MaxEntries})
	if err != nil {
		return nil, err
	}
	return &Tree{t: t}, nil
}

// directory is the leaf record: per class, the sorted object ids.
type directory map[SetID][]encoding.OID

func encodeDirectory(d directory) []byte {
	sets := make([]SetID, 0, len(d))
	for s := range d {
		sets = append(sets, s)
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i] < sets[j] })
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(sets)))
	for _, s := range sets {
		out = binary.BigEndian.AppendUint16(out, uint16(s))
		out = binary.AppendUvarint(out, uint64(len(d[s])))
		for _, o := range d[s] {
			out = binary.BigEndian.AppendUint32(out, uint32(o))
		}
	}
	return out
}

func decodeDirectory(b []byte) (directory, error) {
	d := directory{}
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("chtree: corrupt directory header")
	}
	b = b[sz:]
	for i := uint64(0); i < n; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("chtree: corrupt directory set id")
		}
		s := SetID(binary.BigEndian.Uint16(b))
		b = b[2:]
		cnt, sz := binary.Uvarint(b)
		if sz <= 0 || len(b[sz:]) < int(cnt)*4 {
			return nil, fmt.Errorf("chtree: corrupt directory list")
		}
		b = b[sz:]
		oids := make([]encoding.OID, cnt)
		for j := range oids {
			oids[j] = encoding.OID(binary.BigEndian.Uint32(b))
			b = b[4:]
		}
		d[s] = oids
	}
	return d, nil
}

// Insert adds an object id under (key, set), growing the key's directory.
func (c *Tree) Insert(set SetID, key []byte, oid encoding.OID) error {
	raw, ok, err := c.t.Get(key, nil)
	if err != nil {
		return err
	}
	d := directory{}
	if ok {
		if d, err = decodeDirectory(raw); err != nil {
			return err
		}
	}
	list := d[set]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= oid })
	if i < len(list) && list[i] == oid {
		return nil // already present
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = oid
	d[set] = list
	return c.t.Insert(key, encodeDirectory(d))
}

// Delete removes an object id from (key, set). It reports whether the
// entry existed.
func (c *Tree) Delete(set SetID, key []byte, oid encoding.OID) (bool, error) {
	raw, ok, err := c.t.Get(key, nil)
	if err != nil || !ok {
		return false, err
	}
	d, err := decodeDirectory(raw)
	if err != nil {
		return false, err
	}
	list := d[set]
	i := sort.Search(len(list), func(i int) bool { return list[i] >= oid })
	if i >= len(list) || list[i] != oid {
		return false, nil
	}
	list = append(list[:i], list[i+1:]...)
	if len(list) == 0 {
		delete(d, set)
	} else {
		d[set] = list
	}
	if len(d) == 0 {
		_, err := c.t.Delete(key)
		return true, err
	}
	return true, c.t.Insert(key, encodeDirectory(d))
}

// Entry is one (key, set, oid) item for bulk loading.
type Entry struct {
	Key []byte
	Set SetID
	OID encoding.OID
}

// BulkLoad builds the tree from entries sorted by (key, set, oid).
func (c *Tree) BulkLoad(entries []Entry) error {
	type rec struct {
		key []byte
		dir directory
	}
	var recs []rec
	for _, e := range entries {
		if len(recs) == 0 || string(recs[len(recs)-1].key) != string(e.Key) {
			recs = append(recs, rec{key: e.Key, dir: directory{}})
		}
		d := recs[len(recs)-1].dir
		d[e.Set] = append(d[e.Set], e.OID)
	}
	i := 0
	return c.t.BulkLoad(func() ([]byte, []byte, bool, error) {
		if i >= len(recs) {
			return nil, nil, false, nil
		}
		r := recs[i]
		i++
		return r.key, encodeDirectory(r.dir), true, nil
	})
}

// Len returns the number of distinct key values.
func (c *Tree) Len() int { return c.t.Len() }

// PageCount returns the number of pages including directory overflow
// chains (long object-id lists spill out of the leaves; they are part of
// the structure's footprint).
func (c *Tree) PageCount() (int, error) {
	st, err := c.t.Stats()
	if err != nil {
		return 0, err
	}
	return st.InternalNodes + st.LeafNodes + st.OverflowPages, nil
}

// Height returns the tree height.
func (c *Tree) Height() int { return c.t.Height() }

// DropCache empties the tree's decoded-node cache.
func (c *Tree) DropCache() { c.t.DropCache() }

// Result is one matched object.
type Result struct {
	Set SetID
	OID encoding.OID
}

// ExactMatch returns the object ids with the given key in the queried
// sets. The whole directory record is read (key grouping), then filtered.
func (c *Tree) ExactMatch(key []byte, sets []SetID, tr *pager.Tracker) ([]Result, Stats, error) {
	if tr == nil {
		tr = pager.NewTracker()
	}
	var stats Stats
	raw, ok, err := c.t.Get(key, tr)
	if err != nil {
		return nil, stats, err
	}
	var out []Result
	if ok {
		d, err := decodeDirectory(raw)
		if err != nil {
			return nil, stats, err
		}
		stats.EntriesScanned += len(d)
		out = filterDir(d, sets, out, &stats)
	}
	stats.PagesRead = tr.Reads()
	return out, stats, nil
}

// RangeQuery returns the object ids with key in [lo, hi] in the queried
// sets. Every record in range is read in full — the key-grouping penalty.
func (c *Tree) RangeQuery(lo, hi []byte, sets []SetID, tr *pager.Tracker) ([]Result, Stats, error) {
	if tr == nil {
		tr = pager.NewTracker()
	}
	var stats Stats
	var out []Result
	hiEx := encoding.PrefixEnd(hi)
	err := c.t.Scan(context.Background(), lo, hiEx, tr, func(_, v []byte) ([]byte, bool, error) {
		d, err := decodeDirectory(v)
		if err != nil {
			return nil, true, err
		}
		stats.EntriesScanned += len(d)
		out = filterDir(d, sets, out, &stats)
		return nil, false, nil
	})
	if err != nil {
		return nil, stats, err
	}
	stats.PagesRead = tr.Reads()
	return out, stats, nil
}

func filterDir(d directory, sets []SetID, out []Result, stats *Stats) []Result {
	for _, s := range sets {
		for _, o := range d[s] {
			out = append(out, Result{Set: s, OID: o})
			stats.Matches++
		}
	}
	return out
}
