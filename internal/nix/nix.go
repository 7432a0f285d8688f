// Package nix implements the Nested-Inherited Index (NIX) of Bertino and
// Foscoli (IEEE TKDE 7(2), 1995), the structure the U-index paper compares
// against qualitatively in Section 4.4 and names as future experimental
// work in Section 6.
//
// NIX associates with each attribute value *all* object instances of every
// class (and subclass) along the indexed path: the primary structure is a
// key-grouped B+-tree whose leaf record for a value holds a directory
// {class → object ids} covering every path position; an auxiliary
// structure maps each object to the object it references at the next path
// position (its link toward the terminal), which serves both mid-path
// restriction joins and update discovery.
//
// The relevant cost contrasts with the U-index (paper Section 4.4):
//
//   - single-class and whole-subtree queries are comparable (one descent
//     plus the record — NIX records are larger, spilling to overflow pages
//     sooner);
//   - restricting a mid-path position costs NIX one auxiliary descent per
//     candidate ("the U-index scheme has an advantage since it stores the
//     entire (compressed) path");
//   - updates of end-of-path objects touch the auxiliary structure too
//     ("it is expected to have a worse update performance for end of path
//     objects").
package nix

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/encoding"
	"repro/internal/pager"
	"repro/internal/store"
)

// Spec declares a NIX index; the fields mirror core.Spec.
type Spec struct {
	Name string
	Root string
	Refs []string
	Attr string
}

// Index is a live NIX index over a store.
type Index struct {
	spec     Spec
	st       *store.Store
	primary  *btree.Tree // attr-value bytes -> directory blob
	aux      *btree.Tree // classID(2) ‖ oid(4) -> next-oid(4) [+ value bytes for terminals]
	pathCls  []string    // root-first
	attrType encoding.AttrType
	classID  map[string]uint16
	idClass  []string
}

// Stats reports the cost of one query.
type Stats struct {
	PagesRead   int
	AuxLookups  int // auxiliary-structure descents (restriction joins)
	Matches     int
	RecordsRead int
}

// New creates an empty NIX index over the store in the page file (primary
// and auxiliary structures share it).
func New(f pager.File, st *store.Store, spec Spec) (*Index, error) {
	sch := st.Schema()
	if _, ok := sch.Class(spec.Root); !ok {
		return nil, fmt.Errorf("nix: unknown root class %q", spec.Root)
	}
	pathCls := []string{spec.Root}
	cur := spec.Root
	for _, ref := range spec.Refs {
		a, ok := sch.AttrOf(cur, ref)
		if !ok || !a.IsRef() {
			return nil, fmt.Errorf("nix: %q is not a reference attribute of %q", ref, cur)
		}
		cur = a.Ref
		pathCls = append(pathCls, cur)
	}
	attr, ok := sch.AttrOf(cur, spec.Attr)
	if !ok || attr.IsRef() {
		return nil, fmt.Errorf("nix: %q is not a scalar attribute of %q", spec.Attr, cur)
	}
	primary, err := btree.Create(f, btree.Config{})
	if err != nil {
		return nil, err
	}
	aux, err := btree.Create(f, btree.Config{})
	if err != nil {
		return nil, err
	}
	ix := &Index{
		spec:     spec,
		st:       st,
		primary:  primary,
		aux:      aux,
		pathCls:  pathCls,
		attrType: attr.Type,
		classID:  make(map[string]uint16),
	}
	for i, c := range sch.Classes() {
		ix.classID[c] = uint16(i)
		ix.idClass = append(ix.idClass, c)
	}
	return ix, nil
}

// directory maps classID -> sorted oids.
type directory map[uint16][]encoding.OID

func encodeDirectory(d directory) []byte {
	ids := make([]uint16, 0, len(d))
	for id := range d {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(ids)))
	for _, id := range ids {
		out = binary.BigEndian.AppendUint16(out, id)
		out = binary.AppendUvarint(out, uint64(len(d[id])))
		for _, o := range d[id] {
			out = binary.BigEndian.AppendUint32(out, uint32(o))
		}
	}
	return out
}

func decodeDirectory(b []byte) (directory, error) {
	d := directory{}
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("nix: corrupt directory")
	}
	b = b[sz:]
	for i := uint64(0); i < n; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("nix: corrupt directory class id")
		}
		id := binary.BigEndian.Uint16(b)
		b = b[2:]
		cnt, sz := binary.Uvarint(b)
		if sz <= 0 || len(b[sz:]) < int(cnt)*4 {
			return nil, fmt.Errorf("nix: corrupt directory list")
		}
		b = b[sz:]
		oids := make([]encoding.OID, cnt)
		for j := range oids {
			oids[j] = encoding.OID(binary.BigEndian.Uint32(b))
			b = b[4:]
		}
		d[id] = oids
	}
	return d, nil
}

func auxKey(classID uint16, oid encoding.OID) []byte {
	out := binary.BigEndian.AppendUint16(nil, classID)
	return binary.BigEndian.AppendUint32(out, uint32(oid))
}

// chains enumerates full root-first path instantiations starting at a root
// object.
func (ix *Index) chains(oid store.OID, pos int) ([][]store.OID, error) {
	if pos == len(ix.pathCls)-1 {
		return [][]store.OID{{oid}}, nil
	}
	var out [][]store.OID
	for _, t := range ix.st.DerefMulti(oid, ix.spec.Refs[pos]) {
		subs, err := ix.chains(t, pos+1)
		if err != nil {
			return nil, err
		}
		for _, s := range subs {
			out = append(out, append([]store.OID{oid}, s...))
		}
	}
	return out, nil
}

// valueOf returns the encoded attribute value of a terminal object.
func (ix *Index) valueOf(oid store.OID) ([]byte, bool, error) {
	o, ok := ix.st.Get(oid)
	if !ok {
		return nil, false, fmt.Errorf("nix: missing object %d", oid)
	}
	v, ok := o.Attr(ix.spec.Attr)
	if !ok {
		return nil, false, nil
	}
	b, err := ix.attrType.EncodeValue(v)
	return b, err == nil, err
}

// Build populates an empty index from the store.
func (ix *Index) Build() error {
	if ix.primary.Len() != 0 {
		return fmt.Errorf("nix: Build on non-empty index")
	}
	records := map[string]directory{}
	type auxRec struct {
		next encoding.OID
	}
	auxes := map[string]auxRec{}
	for _, root := range ix.st.HierarchyExtent(ix.spec.Root) {
		cs, err := ix.chains(root, 0)
		if err != nil {
			return err
		}
		for _, c := range cs {
			vb, ok, err := ix.valueOf(c[len(c)-1])
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			d, ok := records[string(vb)]
			if !ok {
				d = directory{}
				records[string(vb)] = d
			}
			for i, oid := range c {
				o, _ := ix.st.Get(oid)
				id := ix.classID[o.Class]
				d[id] = insertSorted(d[id], oid)
				next := encoding.OID(0)
				if i+1 < len(c) {
					next = c[i+1]
				}
				auxes[string(auxKey(id, oid))] = auxRec{next: next}
			}
		}
	}
	// Bulk load both structures.
	keys := make([]string, 0, len(records))
	for k := range records {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	if err := ix.primary.BulkLoad(func() ([]byte, []byte, bool, error) {
		if i >= len(keys) {
			return nil, nil, false, nil
		}
		k := keys[i]
		i++
		return []byte(k), encodeDirectory(records[k]), true, nil
	}); err != nil {
		return err
	}
	akeys := make([]string, 0, len(auxes))
	for k := range auxes {
		akeys = append(akeys, k)
	}
	sort.Strings(akeys)
	j := 0
	return ix.aux.BulkLoad(func() ([]byte, []byte, bool, error) {
		if j >= len(akeys) {
			return nil, nil, false, nil
		}
		k := akeys[j]
		j++
		return []byte(k), binary.BigEndian.AppendUint32(nil, uint32(auxes[k].next)), true, nil
	})
}

func insertSorted(list []encoding.OID, oid encoding.OID) []encoding.OID {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= oid })
	if i < len(list) && list[i] == oid {
		return list
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = oid
	return list
}

// Len returns the number of distinct indexed values.
func (ix *Index) Len() int { return ix.primary.Len() }

// PageCount returns the pages of the primary plus auxiliary structures,
// including the primary's directory overflow chains.
func (ix *Index) PageCount() (int, error) {
	st, err := ix.primary.Stats()
	if err != nil {
		return 0, err
	}
	a, err := ix.aux.PageCount()
	if err != nil {
		return 0, err
	}
	return st.InternalNodes + st.LeafNodes + st.OverflowPages + a, nil
}

// Flush persists both structures' tree metadata to the page file.
func (ix *Index) Flush() error {
	if err := ix.primary.Flush(); err != nil {
		return err
	}
	return ix.aux.Flush()
}

// DropCache empties both structures' decoded-node caches.
func (ix *Index) DropCache() {
	ix.primary.DropCache()
	ix.aux.DropCache()
}

// collect gathers the oids of a directory belonging to class or any of its
// subclasses.
func (ix *Index) collect(d directory, class string, out []encoding.OID) []encoding.OID {
	for _, c := range ix.st.Schema().Subtree(class) {
		if id, ok := ix.classID[c]; ok {
			out = append(out, d[id]...)
		}
	}
	return out
}

// Lookup returns the objects of class (and subclasses) reachable along the
// path from/to a terminal with the exact attribute value.
func (ix *Index) Lookup(v any, class string, tr *pager.Tracker) ([]encoding.OID, Stats, error) {
	if tr == nil {
		tr = pager.NewTracker()
	}
	var stats Stats
	vb, err := ix.attrType.EncodeValue(v)
	if err != nil {
		return nil, stats, err
	}
	raw, ok, err := ix.primary.Get(vb, tr)
	if err != nil {
		return nil, stats, err
	}
	var out []encoding.OID
	if ok {
		stats.RecordsRead++
		d, err := decodeDirectory(raw)
		if err != nil {
			return nil, stats, err
		}
		out = ix.collect(d, class, out)
	}
	stats.Matches = len(out)
	stats.PagesRead = tr.Reads()
	return out, stats, nil
}

// LookupRange is Lookup over an inclusive value range.
func (ix *Index) LookupRange(lo, hi any, class string, tr *pager.Tracker) ([]encoding.OID, Stats, error) {
	if tr == nil {
		tr = pager.NewTracker()
	}
	var stats Stats
	lob, err := ix.attrType.EncodeValue(lo)
	if err != nil {
		return nil, stats, err
	}
	hib, err := ix.attrType.EncodeValue(hi)
	if err != nil {
		return nil, stats, err
	}
	var out []encoding.OID
	err = ix.primary.Scan(context.Background(), lob, encoding.PrefixEnd(hib), tr, func(_, val []byte) ([]byte, bool, error) {
		stats.RecordsRead++
		d, err := decodeDirectory(val)
		if err != nil {
			return nil, true, err
		}
		out = ix.collect(d, class, out)
		return nil, false, nil
	})
	if err != nil {
		return nil, stats, err
	}
	stats.Matches = len(out)
	stats.PagesRead = tr.Reads()
	return out, stats, nil
}

// LookupRestricted is Lookup with a mid-path restriction: only candidates
// whose path passes through one of the allowed objects at restrictClass's
// position survive. Each candidate costs one auxiliary descent per hop —
// the cost the paper contrasts with the U-index's stored full path.
func (ix *Index) LookupRestricted(v any, class, restrictClass string, allowed []store.OID, tr *pager.Tracker) ([]encoding.OID, Stats, error) {
	if tr == nil {
		tr = pager.NewTracker()
	}
	cands, stats, err := ix.Lookup(v, class, tr)
	if err != nil {
		return nil, stats, err
	}
	candPos, restrictPos := -1, -1
	sch := ix.st.Schema()
	for i, c := range ix.pathCls {
		if sch.IsSubclassOf(class, c) {
			candPos = i
		}
		if sch.IsSubclassOf(restrictClass, c) {
			restrictPos = i
		}
	}
	if candPos < 0 || restrictPos < 0 || restrictPos < candPos {
		return nil, stats, fmt.Errorf("nix: restriction %q not downstream of %q on the path", restrictClass, class)
	}
	allowedSet := make(map[store.OID]bool, len(allowed))
	for _, o := range allowed {
		allowedSet[o] = true
	}
	var out []encoding.OID
	for _, cand := range cands {
		cur := cand
		okPath := true
		for hop := candPos; hop < restrictPos; hop++ {
			next, ok, err := ix.auxNext(cur, tr, &stats)
			if err != nil {
				return nil, stats, err
			}
			if !ok {
				okPath = false
				break
			}
			cur = next
		}
		if okPath && allowedSet[cur] {
			out = append(out, cand)
		}
	}
	stats.Matches = len(out)
	stats.PagesRead = tr.Reads()
	return out, stats, nil
}

// auxNext follows the auxiliary link of an object toward the terminal.
func (ix *Index) auxNext(oid store.OID, tr *pager.Tracker, stats *Stats) (store.OID, bool, error) {
	o, ok := ix.st.Get(oid)
	if !ok {
		return 0, false, nil
	}
	stats.AuxLookups++
	raw, ok, err := ix.aux.Get(auxKey(ix.classID[o.Class], oid), tr)
	if err != nil || !ok {
		return 0, false, err
	}
	next := encoding.OID(binary.BigEndian.Uint32(raw))
	if next == 0 {
		return 0, false, nil
	}
	return next, true, nil
}

// valuesThrough returns the set of encoded values reachable through chains
// containing oid (at whatever path position it occupies).
func (ix *Index) valuesThrough(oid store.OID) (map[string]bool, error) {
	o, ok := ix.st.Get(oid)
	if !ok {
		return nil, nil
	}
	sch := ix.st.Schema()
	pos := -1
	for i, c := range ix.pathCls {
		if sch.IsSubclassOf(o.Class, c) {
			pos = i
			break
		}
	}
	if pos < 0 {
		return nil, nil
	}
	// Forward to terminals.
	var terminals []store.OID
	var walk func(store.OID, int)
	walk = func(cur store.OID, p int) {
		if p == len(ix.pathCls)-1 {
			terminals = append(terminals, cur)
			return
		}
		for _, t := range ix.st.DerefMulti(cur, ix.spec.Refs[p]) {
			walk(t, p+1)
		}
	}
	walk(oid, pos)
	out := map[string]bool{}
	for _, t := range terminals {
		vb, ok, err := ix.valueOf(t)
		if err != nil {
			return nil, err
		}
		if ok {
			out[string(vb)] = true
		}
	}
	return out, nil
}

// Refresh rebuilds the primary records for the given encoded values and the
// auxiliary entries of every object appearing in them. Update operations
// compute the affected values (before and after a mutation) via
// ValuesThrough and then call Refresh — the NIX update path.
func (ix *Index) Refresh(values map[string]bool) error {
	for vs := range values {
		vb := []byte(vs)
		d := directory{}
		// Re-derive the record from root chains that still reach vb.
		for _, root := range ix.st.HierarchyExtent(ix.spec.Root) {
			cs, err := ix.chains(root, 0)
			if err != nil {
				return err
			}
			for _, c := range cs {
				got, ok, err := ix.valueOf(c[len(c)-1])
				if err != nil {
					return err
				}
				if !ok || !bytes.Equal(got, vb) {
					continue
				}
				for i, oid := range c {
					o, _ := ix.st.Get(oid)
					id := ix.classID[o.Class]
					d[id] = insertSorted(d[id], oid)
					next := encoding.OID(0)
					if i+1 < len(c) {
						next = c[i+1]
					}
					if err := ix.aux.Insert(auxKey(id, oid), binary.BigEndian.AppendUint32(nil, uint32(next))); err != nil {
						return err
					}
				}
			}
		}
		if len(d) == 0 {
			if _, err := ix.primary.Delete(vb); err != nil {
				return err
			}
			continue
		}
		if err := ix.primary.Insert(vb, encodeDirectory(d)); err != nil {
			return err
		}
	}
	return nil
}

// ValuesThrough exposes the affected-value computation for update flows:
// call before and after a mutation and Refresh the union.
func (ix *Index) ValuesThrough(oid store.OID) (map[string]bool, error) {
	return ix.valuesThrough(oid)
}

// RemoveObject removes an object's contributions: call BEFORE deleting it
// from the store (values are computed while chains still exist), then
// delete it, then call Refresh with the returned values.
func (ix *Index) RemoveObject(oid store.OID) (map[string]bool, error) {
	vals, err := ix.valuesThrough(oid)
	if err != nil {
		return nil, err
	}
	o, ok := ix.st.Get(oid)
	if ok {
		if _, err := ix.aux.Delete(auxKey(ix.classID[o.Class], oid)); err != nil {
			return nil, err
		}
	}
	return vals, nil
}
