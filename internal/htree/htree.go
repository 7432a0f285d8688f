// Package htree implements the H-tree of Low, Ooi and Lu ("H-trees: a
// dynamic associative search index for OODB", SIGMOD 1992), the
// set-grouping baseline of the U-index paper's Section 2: one B+-tree per
// class, nested along the class hierarchy by link pointers between trees.
//
// The defining cost behaviour, quoted directly by the paper, is that "the
// H-tree groups all members of a single set at the leaf page level
// according to their key values. This implies that retrieval costs are
// directly proportional to the number of sets queried." We keep one B+-tree
// per set inside a shared page file; the hierarchy links that let a
// subclass search start below the superclass root are modelled by the
// shared per-query tracker (a child search re-reads no page the parent
// search already fetched — their roots are distinct pages, so unlike the
// CG-tree nothing is actually shared, which is exactly the H-tree's
// weakness).
package htree

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/encoding"
	"repro/internal/pager"
)

// SetID identifies one class (set).
type SetID uint16

// Config mirrors btree.Config.
type Config struct {
	MaxEntries int
}

// Forest is an H-tree: a family of per-set B+-trees in one page file.
type Forest struct {
	f     pager.File
	cfg   Config
	trees map[SetID]*btree.Tree
}

// Stats reports the cost of one query.
type Stats struct {
	PagesRead      int
	EntriesScanned int
	Matches        int
}

// New creates an empty H-tree forest.
func New(f pager.File, cfg Config) *Forest {
	return &Forest{f: f, cfg: cfg, trees: make(map[SetID]*btree.Tree)}
}

func (h *Forest) tree(set SetID, create bool) (*btree.Tree, error) {
	if t, ok := h.trees[set]; ok {
		return t, nil
	}
	if !create {
		return nil, nil
	}
	t, err := btree.Create(h.f, btree.Config{MaxEntries: h.cfg.MaxEntries})
	if err != nil {
		return nil, err
	}
	h.trees[set] = t
	return t, nil
}

func entryKey(key []byte, oid encoding.OID) []byte {
	out := make([]byte, 0, len(key)+4)
	out = append(out, key...)
	return binary.BigEndian.AppendUint32(out, uint32(oid))
}

// Insert adds one (set, key, oid) entry.
func (h *Forest) Insert(set SetID, key []byte, oid encoding.OID) error {
	t, err := h.tree(set, true)
	if err != nil {
		return err
	}
	return t.Insert(entryKey(key, oid), nil)
}

// Delete removes one entry, reporting whether it existed.
func (h *Forest) Delete(set SetID, key []byte, oid encoding.OID) (bool, error) {
	t, err := h.tree(set, false)
	if err != nil || t == nil {
		return false, err
	}
	return t.Delete(entryKey(key, oid))
}

// Entry is one item for bulk loading.
type Entry struct {
	Set SetID
	Key []byte
	OID encoding.OID
}

// BulkLoad builds the forest from entries; they may arrive in any order.
func (h *Forest) BulkLoad(entries []Entry) error {
	perSet := map[SetID][]Entry{}
	for _, e := range entries {
		perSet[e.Set] = append(perSet[e.Set], e)
	}
	// Deterministic set order keeps page layout reproducible.
	sets := make([]SetID, 0, len(perSet))
	for s := range perSet {
		sets = append(sets, s)
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i] < sets[j] })
	for _, s := range sets {
		es := perSet[s]
		sort.Slice(es, func(i, j int) bool {
			a, b := entryKey(es[i].Key, es[i].OID), entryKey(es[j].Key, es[j].OID)
			return string(a) < string(b)
		})
		t, err := h.tree(s, true)
		if err != nil {
			return err
		}
		if t.Len() != 0 {
			return fmt.Errorf("htree: BulkLoad into non-empty set %d", s)
		}
		i := 0
		err = t.BulkLoad(func() ([]byte, []byte, bool, error) {
			if i >= len(es) {
				return nil, nil, false, nil
			}
			e := es[i]
			i++
			return entryKey(e.Key, e.OID), nil, true, nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Len returns the total number of entries across all sets.
func (h *Forest) Len() int {
	n := 0
	for _, t := range h.trees {
		n += t.Len()
	}
	return n
}

// PageCount returns the number of pages across all per-set trees.
func (h *Forest) PageCount() (int, error) {
	total := 0
	for _, t := range h.trees {
		n, err := t.PageCount()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// DropCache empties every per-set tree's decoded-node cache.
func (h *Forest) DropCache() {
	for _, t := range h.trees {
		t.DropCache()
	}
}

// Result is one matched entry.
type Result struct {
	Set SetID
	OID encoding.OID
}

// ExactMatch retrieves the oids with the given key in each queried set:
// one full descent per set (the H-tree's linear-in-sets cost).
func (h *Forest) ExactMatch(key []byte, sets []SetID, tr *pager.Tracker) ([]Result, Stats, error) {
	return h.query(key, key, sets, tr)
}

// RangeQuery retrieves the oids with key in [lo, hi] in each queried set.
// Per-set data is perfectly clustered — the best possible range behaviour,
// which is why the paper calls H-trees best for ranges.
func (h *Forest) RangeQuery(lo, hi []byte, sets []SetID, tr *pager.Tracker) ([]Result, Stats, error) {
	return h.query(lo, hi, sets, tr)
}

func (h *Forest) query(lo, hi []byte, sets []SetID, tr *pager.Tracker) ([]Result, Stats, error) {
	if tr == nil {
		tr = pager.NewTracker()
	}
	if len(lo) != len(hi) {
		return nil, Stats{}, fmt.Errorf("htree: range bounds of different lengths")
	}
	keyLen := len(lo)
	var out []Result
	var stats Stats
	hiEx := append(append([]byte(nil), hi...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	for _, s := range sets {
		t, err := h.tree(s, false)
		if err != nil {
			return nil, stats, err
		}
		if t == nil {
			continue
		}
		err = t.Scan(context.Background(), lo, hiEx, tr, func(k, _ []byte) ([]byte, bool, error) {
			stats.EntriesScanned++
			if len(k) != keyLen+4 {
				return nil, true, fmt.Errorf("htree: entry of %d bytes, want %d", len(k), keyLen+4)
			}
			oid := encoding.OID(binary.BigEndian.Uint32(k[keyLen:]))
			out = append(out, Result{Set: s, OID: oid})
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
