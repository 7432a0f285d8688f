// Package core implements the U-index, the paper's contribution (Gudes,
// Section 3): one B+-tree with front-compressed keys that uniformly serves
// as class-hierarchy index, path (nested) index, and combined
// class-hierarchy/path index.
//
// An index is declared over a REF path of classes, root (the queried class)
// to terminal (the class carrying the indexed attribute); a class-hierarchy
// index is simply the degenerate path of length one. Every index entry is a
// single key
//
//	attr-value ‖ codeₜ $ oidₜ ‖ … ‖ code₀ $ oid₀
//
// with the terminal class first, where each code is the *actual* class of
// the object (so subclasses index uniformly — the paper's "combined" index
// falls out for free), and '$' sorts below every code character. Because
// class codes order lexicographically along REF edges and in hierarchy
// preorder, all entries of a class subtree, of one terminal object, of one
// mid-path object, and of one attribute value are contiguous — the
// clustering every query in Section 3.3 exploits.
package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"repro/internal/btree"
	"repro/internal/encoding"
	"repro/internal/pager"
	"repro/internal/schema"
	"repro/internal/store"
)

// Spec declares a U-index.
type Spec struct {
	// Name identifies the index.
	Name string
	// Root is the queried class at the top of the REF path (the paper's
	// example: "Vehicle").
	Root string
	// Refs names the reference attributes walked from Root toward the
	// terminal class (example: "ManufacturedBy", "President"). Empty for
	// a class-hierarchy index on Root itself.
	Refs []string
	// Attr is the indexed scalar attribute, resolved on the terminal
	// class (example: "Age"; for a class-hierarchy index on Root, e.g.
	// "Color").
	Attr string
	// Coding optionally overrides the schema's default coding, for
	// indexes over REF edges that the default coding could not honor
	// (the cycle-breaking duplicate encodings of Section 4.3).
	Coding *schema.Coding
	// MaxEntries, when positive, switches the underlying B-tree to
	// count-capacity nodes (the paper's first experiment).
	MaxEntries int
	// NoCompression disables front compression in the underlying B-tree
	// (the Section-4.2 storage-cost ablation).
	NoCompression bool
}

// Index is one shard of a U-index: one B+-tree in one page file, over the
// spec's REF path resolved against the schema. Shards exist only inside the
// Sharded group that builds, queries and updates them (NewSharded); a
// one-shard group is the whole index. Outside this package a shard serves
// introspection — the group's Prototype carries the spec, coding and key
// layout that query parsing, Explain and EntriesFor need.
//
// Reads need no locking: the tree is multi-version and every query runs
// against a pinned snapshot. Writes are not self-locking — the group's
// caller holds the shard's writer lock (Sharded.LockShards) for the span
// that must be atomic, which lets the engine update several indexes
// concurrently and hold one index across a multi-step update.
type Index struct {
	spec     Spec
	st       *store.Store
	coding   *schema.Coding
	tree     *btree.Tree
	pathCls  []string // classes root-first: pathCls[0] = Root
	attrType encoding.AttrType
	maxChain int        // fan-out guard for entry enumeration
	wmu      sync.Mutex // serializes writers on this shard
}

// DefaultMaxChains caps the number of path instantiations enumerated for a
// single object mutation.
const DefaultMaxChains = 1 << 16

// resolve validates spec against the store's schema and returns it resolved
// — coding, path classes, attribute type — as a shard without a tree, the
// template newShard completes.
func resolve(st *store.Store, spec Spec) (*Index, error) {
	sch := st.Schema()
	coding := spec.Coding
	if coding == nil {
		coding = sch.Coding()
	}
	if coding == nil {
		return nil, fmt.Errorf("core: schema has no coding; call AssignCodes first")
	}
	if _, ok := sch.Class(spec.Root); !ok {
		return nil, fmt.Errorf("core: index %q: unknown root class %q", spec.Name, spec.Root)
	}
	// Resolve the path classes by walking the REF attributes.
	pathCls := []string{spec.Root}
	cur := spec.Root
	for _, ref := range spec.Refs {
		a, ok := sch.AttrOf(cur, ref)
		if !ok {
			return nil, fmt.Errorf("core: index %q: class %q has no attribute %q", spec.Name, cur, ref)
		}
		if !a.IsRef() {
			return nil, fmt.Errorf("core: index %q: attribute %s.%s is not a reference", spec.Name, cur, ref)
		}
		cur = a.Ref
		pathCls = append(pathCls, cur)
	}
	attr, ok := sch.AttrOf(cur, spec.Attr)
	if !ok {
		return nil, fmt.Errorf("core: index %q: terminal class %q has no attribute %q", spec.Name, cur, spec.Attr)
	}
	if attr.IsRef() {
		return nil, fmt.Errorf("core: index %q: indexed attribute %s.%s is a reference, want a scalar", spec.Name, cur, spec.Attr)
	}
	// The coding must order the path terminal-first with disjoint
	// subtrees; otherwise the caller needs an alternate coding
	// (Section 4.3).
	for i := 0; i+1 < len(pathCls); i++ {
		src, ok := coding.Code(pathCls[i])
		if !ok {
			return nil, fmt.Errorf("core: index %q: class %q has no code", spec.Name, pathCls[i])
		}
		tgt, ok := coding.Code(pathCls[i+1])
		if !ok {
			return nil, fmt.Errorf("core: index %q: class %q has no code", spec.Name, pathCls[i+1])
		}
		if !(tgt.SubtreeEnd() <= string(src)) {
			return nil, fmt.Errorf("core: index %q: coding does not order %q (%s) after %q (%s); "+
				"use Schema.CodingHonoring for this path (paper Section 4.3)",
				spec.Name, pathCls[i], src, pathCls[i+1], tgt)
		}
	}
	return &Index{
		spec:     spec,
		st:       st,
		coding:   coding,
		pathCls:  pathCls,
		attrType: attr.Type,
		maxChain: DefaultMaxChains,
	}, nil
}

// newShard opens one shard of the resolved spec r in f: an empty tree when
// meta is pager.NilPage, else the tree whose metadata page a Flush reported
// (MetaPage).
func (r *Index) newShard(f pager.File, meta pager.PageID) (*Index, error) {
	var tree *btree.Tree
	var err error
	if meta == pager.NilPage {
		tree, err = btree.Create(f, btree.Config{MaxEntries: r.spec.MaxEntries, NoCompression: r.spec.NoCompression})
	} else {
		tree, err = btree.Open(f, meta)
	}
	if err != nil {
		return nil, err
	}
	return &Index{
		spec:     r.spec,
		st:       r.st,
		coding:   r.coding,
		tree:     tree,
		pathCls:  r.pathCls,
		attrType: r.attrType,
		maxChain: r.maxChain,
	}, nil
}

// Spec returns the index declaration.
func (ix *Index) Spec() Spec { return ix.spec }

// Tree exposes the underlying B-tree (read-only use: stats, page counts).
func (ix *Index) Tree() *btree.Tree { return ix.tree }

// Coding returns the coding the index encodes classes with.
func (ix *Index) Coding() *schema.Coding { return ix.coding }

// PathClasses returns the declared classes of the path, root-first.
func (ix *Index) PathClasses() []string {
	return append([]string(nil), ix.pathCls...)
}

// AttrType returns the encoding type of the indexed attribute.
func (ix *Index) AttrType() encoding.AttrType { return ix.attrType }

// chain is one instantiation of the path: objects root-first, aligned with
// pathCls.
type chain []store.OID

// EntriesFor enumerates the index keys in which the given object
// participates. The object must currently exist in the store. This powers
// both incremental insertion and deletion (Section 3.5: an update is plain
// B-tree insertions/deletions of exactly these keys).
func (ix *Index) EntriesFor(oid store.OID) ([][]byte, error) {
	o, ok := ix.st.Get(oid)
	if !ok {
		return nil, fmt.Errorf("core: no object %d", oid)
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
		return nil, nil // object not on this index's path
	}
	fwd, err := ix.forwardChains(oid, pos)
	if err != nil {
		return nil, err
	}
	if len(fwd) == 0 {
		return nil, nil
	}
	bwd, err := ix.backwardChains(oid, pos)
	if err != nil {
		return nil, err
	}
	if len(bwd) == 0 {
		return nil, nil
	}
	if len(fwd)*len(bwd) > ix.maxChain {
		return nil, fmt.Errorf("core: object %d participates in %d paths, above the %d cap",
			oid, len(fwd)*len(bwd), ix.maxChain)
	}
	var keys [][]byte
	for _, b := range bwd {
		for _, f := range fwd {
			full := make(chain, 0, len(ix.pathCls))
			full = append(full, b...) // root .. pos-1
			full = append(full, f...) // pos .. terminal
			key, ok, err := ix.keyFor(full)
			if err != nil {
				return nil, err
			}
			if ok {
				keys = append(keys, key)
			}
		}
	}
	return keys, nil
}

// forwardChains enumerates partial chains [object at pos, ..., terminal]
// starting from oid at path position pos, following the REF attributes.
func (ix *Index) forwardChains(oid store.OID, pos int) ([]chain, error) {
	if pos == len(ix.pathCls)-1 {
		return []chain{{oid}}, nil
	}
	targets := ix.st.DerefMulti(oid, ix.spec.Refs[pos])
	var out []chain
	for _, t := range targets {
		sub, err := ix.forwardChains(t, pos+1)
		if err != nil {
			return nil, err
		}
		for _, s := range sub {
			c := make(chain, 0, len(s)+1)
			c = append(c, oid)
			c = append(c, s...)
			out = append(out, c)
			if len(out) > ix.maxChain {
				return nil, fmt.Errorf("core: forward chain fan-out above %d", ix.maxChain)
			}
		}
	}
	return out, nil
}

// backwardChains enumerates partial chains [root, ..., object at pos-1]
// ending just before path position pos, using the store's reverse-reference
// index.
func (ix *Index) backwardChains(oid store.OID, pos int) ([]chain, error) {
	if pos == 0 {
		return []chain{{}}, nil
	}
	sch := ix.st.Schema()
	var out []chain
	for _, src := range ix.st.Referencing(ix.spec.Refs[pos-1], oid) {
		o, ok := ix.st.Get(src)
		if !ok || !sch.IsSubclassOf(o.Class, ix.pathCls[pos-1]) {
			continue
		}
		subs, err := ix.backwardChains(src, pos-1)
		if err != nil {
			return nil, err
		}
		for _, s := range subs {
			c := make(chain, 0, len(s)+1)
			c = append(c, s...)
			c = append(c, src)
			out = append(out, c)
			if len(out) > ix.maxChain {
				return nil, fmt.Errorf("core: backward chain fan-out above %d", ix.maxChain)
			}
		}
	}
	return out, nil
}

// keyFor builds the index key for a full root-first chain. ok=false when the
// terminal object has no value for the indexed attribute.
func (ix *Index) keyFor(c chain) ([]byte, bool, error) {
	term, ok := ix.st.Get(c[len(c)-1])
	if !ok {
		return nil, false, fmt.Errorf("core: chain references missing object %d", c[len(c)-1])
	}
	v, ok := term.Attr(ix.spec.Attr)
	if !ok {
		return nil, false, nil
	}
	attr, err := ix.attrType.EncodeValue(v)
	if err != nil {
		return nil, false, fmt.Errorf("core: encoding %s of object %d: %w", ix.spec.Attr, term.OID, err)
	}
	path := make([]encoding.PathEntry, 0, len(c))
	for i := len(c) - 1; i >= 0; i-- { // terminal first
		o, ok := ix.st.Get(c[i])
		if !ok {
			return nil, false, fmt.Errorf("core: chain references missing object %d", c[i])
		}
		code, ok := ix.coding.Code(o.Class)
		if !ok {
			return nil, false, fmt.Errorf("core: class %q has no code", o.Class)
		}
		path = append(path, encoding.PathEntry{Code: code, OID: c[i]})
	}
	return encoding.BuildKey(attr, path), true, nil
}

func sortKeys(keys [][]byte) {
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
}

// Len returns the number of entries in this shard.
func (ix *Index) Len() int { return ix.tree.Len() }

// PageCount returns the number of pages in the index tree.
func (ix *Index) PageCount() (int, error) { return ix.tree.PageCount() }

// DropCache empties the tree's decoded-node cache (cold-cache
// measurements); it writes nothing.
func (ix *Index) DropCache() { ix.tree.DropCache() }

// NodeCacheStats reports the underlying B-tree's shared decoded-node cache
// counters.
func (ix *Index) NodeCacheStats() btree.CacheStats { return ix.tree.NodeCacheStats() }

// Flush persists every dirty page and the tree metadata to the page file;
// MetaPage then identifies the tree for reopening it with NewSharded.
func (ix *Index) Flush() error { return ix.tree.Flush() }

// MetaPage returns the page id of the tree's metadata page.
func (ix *Index) MetaPage() pager.PageID { return ix.tree.MetaPage() }
