package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/btree"
	"repro/internal/encoding"
	"repro/internal/store"
)

// ValuePred restricts the indexed attribute value. Exactly one form is
// active: an enumerated list of values (the paper's translation of range
// expressions "extract next j values for the range", Algorithm 1), or a
// continuous inclusive range (used when enumeration is impractical, e.g.
// unique keys over a large domain).
type ValuePred struct {
	Values []any // enumerated values; nil selects the range form
	Lo, Hi any   // inclusive bounds; nil = open end (range form only)
}

// Exact returns a ValuePred matching one value.
func Exact(v any) ValuePred { return ValuePred{Values: []any{v}} }

// OneOf returns a ValuePred matching any of the listed values.
func OneOf(vs ...any) ValuePred { return ValuePred{Values: vs} }

// Range returns a continuous inclusive range predicate.
func Range(lo, hi any) ValuePred { return ValuePred{Lo: lo, Hi: hi} }

// Uint64Range enumerates an integer range (the paper's preferred
// translation for small ranges).
func Uint64Range(lo, hi uint64) ValuePred {
	var vs []any
	for v := lo; v <= hi; v++ {
		vs = append(vs, v)
		if v == hi { // guard wrap-around at MaxUint64
			break
		}
	}
	return ValuePred{Values: vs}
}

// ClassPattern restricts one path position to a class, optionally with its
// whole subtree (the paper's "C5A*" regular expression), optionally to
// specific object ids (the paper's Valᵢ component).
type ClassPattern struct {
	Class   string
	Subtree bool
	OIDs    []store.OID
}

// Position restricts one path position (terminal-first, matching both the
// key layout and the paper's query syntax). The zero value is a wildcard.
type Position struct {
	Alts []ClassPattern // disjunction; empty = any class at this position
}

// Any is the wildcard position.
var Any = Position{}

// On builds a position matching the subtree rooted at class (the common
// case: "this class and its subclasses").
func On(class string) Position {
	return Position{Alts: []ClassPattern{{Class: class, Subtree: true}}}
}

// OnExact builds a position matching the class only, without subclasses.
func OnExact(class string) Position {
	return Position{Alts: []ClassPattern{{Class: class}}}
}

// OnObjects builds a position matching specific objects of a class (or any
// of its subclasses — the objects pin the entries; the class only scopes
// validation). This is the paper's Valᵢ component: "2) actual value - i.e
// object-id for some class".
func OnObjects(class string, oids ...store.OID) Position {
	return Position{Alts: []ClassPattern{{Class: class, Subtree: true, OIDs: oids}}}
}

// Where builds a position restricted by a predicate on the position
// class's own attributes — the paper's Valᵢ form "4) a predicate". As in
// the paper's query 3 ("The companies' object-ids must be first restricted
// by a select operation"), the predicate is evaluated by a store select
// over the class hierarchy and the resulting object ids restrict the
// position.
func (ix *Index) Where(class, attr string, pred func(any) bool) Position {
	oids := ix.st.Select(class, attr, pred)
	if len(oids) == 0 {
		// An impossible position: restrict to no objects. A zero-OID
		// pattern matches nothing (OIDs start at 1).
		return Position{Alts: []ClassPattern{{Class: class, Subtree: true, OIDs: []store.OID{0}}}}
	}
	return Position{Alts: []ClassPattern{{Class: class, Subtree: true, OIDs: oids}}}
}

// Store exposes the object store the index is built over (used by the
// query language's predicate restrictions).
func (ix *Index) Store() *store.Store { return ix.st }

// OneOfClasses builds a position matching any of several subtrees (the
// paper's query 5: "[C5A*, C5B]").
func OneOfClasses(subtrees ...string) Position {
	p := Position{}
	for _, c := range subtrees {
		p.Alts = append(p.Alts, ClassPattern{Class: c, Subtree: true})
	}
	return p
}

// Query is the general query of Section 3.4:
//
//	(attr-value, Class-code₁ Val₁, Class-code₂ Val₂, …)
//
// Positions are terminal-first (key order). Missing trailing positions are
// wildcards. Distinct > 0 requests distinct path prefixes of that many
// positions: after the first match of a cluster the scan skips the rest of
// it (the paper's query 4 — "find all companies whose president's age is
// 50" over a Vehicle path index).
type Query struct {
	Value     ValuePred
	Positions []Position
	Distinct  int
}

// Match is one query result.
//
// The matches of one result share storage: every Path is a capped window of
// the result's one backing array (an append to a Path copies, it never
// overwrites the next match's entries), and consecutive matches with one
// attribute value share one Value. A caller that edits a Path's entries in
// place edits only that match.
type Match struct {
	Value any                  // decoded attribute value
	Path  []encoding.PathEntry // terminal-first; truncated to Distinct when set
}

// plan is a compiled query.
type plan struct {
	intervals []btree.Interval
	// valueIntervals cover whole attribute-value clusters without any
	// class positioning: one per enumerated value (or one for a range).
	// The forward-scanning baseline uses these — per the paper it finds
	// "the first relevant index entry using the standard B-tree search"
	// for each search key and then scans the entire value cluster,
	// filtering classes by inspection rather than by seeking.
	valueIntervals []btree.Interval
	q              Query
	patterns       [][]compiledPattern // per position, resolved codes
}

type compiledPattern struct {
	code    encoding.Code
	subtree bool
	oids    map[store.OID]bool // nil = unrestricted
}

// maxPinnedPrefixes caps the interval fan-out of the compiler.
const maxPinnedPrefixes = 8192

// compile turns a query into (a) a set of key intervals for the tree scan
// and (b) residual per-position patterns for the matcher. The compiler
// extends interval prefixes through positions as long as they pin a single
// (class, oid) point — exactly the paper's construction of partial keys in
// Algorithm 1 — and leaves the rest to the matcher, whose skip requests
// reproduce the parent-node skip of Section 3.3.
func (ix *Index) compile(q Query) (*plan, error) {
	if len(q.Positions) > len(ix.pathCls) {
		return nil, fmt.Errorf("core: query has %d positions, index path has %d", len(q.Positions), len(ix.pathCls))
	}
	if q.Distinct < 0 || q.Distinct > len(ix.pathCls) {
		return nil, fmt.Errorf("core: Distinct=%d out of range", q.Distinct)
	}
	p := &plan{q: q}
	// Resolve class names to codes and validate subtree membership.
	for pi, pos := range q.Positions {
		declared := ix.pathCls[len(ix.pathCls)-1-pi] // terminal-first
		var pats []compiledPattern
		for _, alt := range pos.Alts {
			code, ok := ix.coding.Code(alt.Class)
			if !ok {
				return nil, fmt.Errorf("core: unknown class %q in query", alt.Class)
			}
			declCode := ix.coding.MustCode(declared)
			if !declCode.IsAncestorOrSelf(code) {
				return nil, fmt.Errorf("core: class %q is outside position %d (%s hierarchy)", alt.Class, pi, declared)
			}
			if len(alt.OIDs) > 0 {
				// Resolve each object to its actual class code, so
				// the pattern pins exact key points even when the
				// object is a subclass instance. Objects no longer
				// in the store keep the declared code with an OID
				// filter (conservative: no entries should match).
				for _, o := range alt.OIDs {
					cp := compiledPattern{code: code, oids: map[store.OID]bool{o: true}}
					if obj, ok := ix.st.Get(o); ok {
						actual, okc := ix.coding.Code(obj.Class)
						if okc && code.IsAncestorOrSelf(actual) {
							cp.code = actual
						} else if !alt.Subtree {
							cp.code = code
						} else {
							cp.subtree = true
						}
					} else if alt.Subtree {
						cp.subtree = true
					}
					pats = append(pats, cp)
				}
				continue
			}
			pats = append(pats, compiledPattern{code: code, subtree: alt.Subtree})
		}
		p.patterns = append(p.patterns, pats)
	}

	// Attribute-value prefixes.
	var prefixes [][]byte
	if q.Value.Values == nil {
		// Continuous range: one interval, everything residual.
		var lo, hi []byte
		if q.Value.Lo != nil {
			b, err := ix.attrType.EncodeValue(q.Value.Lo)
			if err != nil {
				return nil, err
			}
			lo = b
		}
		if q.Value.Hi != nil {
			b, err := ix.attrType.EncodeValue(q.Value.Hi)
			if err != nil {
				return nil, err
			}
			hi = encoding.PrefixEnd(b) // inclusive upper value
		}
		p.intervals = []btree.Interval{{Lo: lo, Hi: hi}}
		p.valueIntervals = p.intervals
		return p, nil
	}
	for _, v := range q.Value.Values {
		b, err := ix.attrType.EncodeValue(v)
		if err != nil {
			return nil, err
		}
		prefixes = append(prefixes, b)
		p.valueIntervals = append(p.valueIntervals, btree.Interval{Lo: b, Hi: encoding.PrefixEnd(b)})
	}

	// Extend prefixes through pinned positions.
	pos := 0
	for ; pos < len(p.patterns); pos++ {
		pats := p.patterns[pos]
		if len(pats) == 0 {
			break // wildcard
		}
		pinnable := true
		points := 0
		for _, cp := range pats {
			if cp.subtree || cp.oids == nil {
				pinnable = false
				break
			}
			points += len(cp.oids)
		}
		if !pinnable || len(prefixes)*points > maxPinnedPrefixes {
			break
		}
		var next [][]byte
		for _, pre := range prefixes {
			for _, cp := range pats {
				for oid := range cp.oids {
					key := append([]byte(nil), pre...)
					key = encoding.AppendKey(key, nil, []encoding.PathEntry{{Code: cp.code, OID: oid}})
					next = append(next, key)
				}
			}
		}
		prefixes = next
	}

	// Emit intervals at the first unpinned position.
	if pos == len(ix.pathCls) {
		// Every position pinned: each prefix is one exact key.
		for _, pre := range prefixes {
			p.intervals = append(p.intervals, btree.Interval{
				Lo: pre,
				Hi: append(append([]byte(nil), pre...), 0x00),
			})
		}
		return p, nil
	}
	for _, pre := range prefixes {
		if pos < len(p.patterns) && len(p.patterns[pos]) > 0 {
			for _, cp := range p.patterns[pos] {
				if cp.subtree {
					// [pre‖code, pre‖code‖'/'): the class and its
					// whole subtree.
					lo := append(append([]byte(nil), pre...), cp.code...)
					hi := append(append([]byte(nil), pre...), cp.code.SubtreeEnd()...)
					p.intervals = append(p.intervals, btree.Interval{Lo: lo, Hi: hi})
				} else {
					// [pre‖code‖'$', pre‖code‖'%'): the class only.
					lo := append(append([]byte(nil), pre...), cp.code...)
					lo = append(lo, encoding.SepByte)
					hi := append(append([]byte(nil), pre...), cp.code...)
					hi = append(hi, encoding.SepSuccByte)
					p.intervals = append(p.intervals, btree.Interval{Lo: lo, Hi: hi})
				}
			}
		} else {
			// Wildcard: the whole cluster under the prefix.
			p.intervals = append(p.intervals, btree.Interval{Lo: pre, Hi: encoding.PrefixEnd(pre)})
		}
	}
	return p, nil
}

// matchScratch is the reusable per-execution state of matchKey: the parsed
// path and offset slices, the class-code intern table, and the buffers skip
// keys are built in. One scan reuses it for every entry inspected, so the
// per-entry parse and the skip computation allocate nothing in steady state.
// A scratch belongs to one execution goroutine at a time — each shard's
// pooled shardResult carries one, and its intern table across queries.
type matchScratch struct {
	path  []encoding.PathEntry
	offs  []int
	codes encoding.CodeInterner
	skip  []byte // the last skip key returned
	cand  []byte // skipFor's candidate component
}

// matchKey checks a key against the residual patterns. On a match (ok) it
// returns the key's attribute-value bytes and its path, truncated to
// Distinct when set; on a mismatch, or after a Distinct match, it returns
// the skip key for the parallel algorithm (nil when plain advancement is
// fine). attr aliases key; path and skipTo alias the scratch and are only
// valid until the next matchKey call on it.
func (p *plan) matchKey(ix *Index, key []byte, sc *matchScratch) (attr []byte, path []encoding.PathEntry, ok bool, skipTo []byte, err error) {
	attr, path, offs, err := sc.split(ix.attrType, key)
	if err != nil {
		return nil, nil, false, nil, err
	}
	for pi, pats := range p.patterns {
		if len(pats) == 0 {
			continue
		}
		if pi >= len(path) {
			return nil, nil, false, nil, fmt.Errorf("core: key has %d positions, query expects %d", len(path), len(p.patterns))
		}
		hit := false
		for _, cp := range pats {
			if cp.subtree {
				if !cp.code.IsAncestorOrSelf(path[pi].Code) {
					continue
				}
			} else if cp.code != path[pi].Code {
				continue
			}
			if cp.oids != nil && !cp.oids[path[pi].OID] {
				continue
			}
			hit = true
			break
		}
		if !hit {
			return nil, nil, false, p.skipFor(sc, key, attr, offs, pi, pats), nil
		}
	}
	if p.q.Distinct > 0 && p.q.Distinct <= len(path) {
		path = path[:p.q.Distinct]
		skipTo = sc.skipPast(key, offs[p.q.Distinct-1])
	}
	return attr, path, true, skipTo, nil
}

// split parses a composite key into the scratch, returning the
// attribute-value bytes, the path entries, and for each entry the byte
// offset just past it (used to build skip keys). The returned slices alias
// the scratch and are only valid until the next split.
func (sc *matchScratch) split(t encoding.AttrType, key []byte) (attr []byte, path []encoding.PathEntry, offs []int, err error) {
	attr, rest, err := t.SplitValue(key)
	if err != nil {
		return nil, nil, nil, err
	}
	path, err = encoding.AppendSplitPath(sc.path[:0], rest, &sc.codes)
	if err != nil {
		return nil, nil, nil, err
	}
	sc.path = path
	offs = sc.offs[:0]
	off := len(attr)
	for _, pe := range path {
		off += len(pe.Code) + 1 + encoding.OIDSize
		offs = append(offs, off)
	}
	sc.offs = offs
	return attr, path, offs, nil
}

// skipFor computes the resume key after a mismatch at position pi: the
// paper's search-tree move. If some alternative's class cluster begins
// after the current component within the same parent cluster, seek directly
// to it; otherwise skip the whole parent cluster, since nothing below it
// can match position pi anymore. The skip key is built in sc.skip, and the
// candidates in sc.cand.
func (p *plan) skipFor(sc *matchScratch, key, attr []byte, offs []int, pi int, pats []compiledPattern) []byte {
	start := len(attr)
	if pi > 0 {
		start = offs[pi-1]
	}
	curComp := key[start:offs[pi]]
	// out is key[:start] followed by the best candidate so far.
	out := append(sc.skip[:0], key[:start]...)
	found := false
	consider := func(cand []byte) {
		if bytes.Compare(cand, curComp) > 0 && (!found || bytes.Compare(cand, out[start:]) < 0) {
			out = append(out[:start], cand...)
			found = true
		}
	}
	for _, cp := range pats {
		switch {
		case cp.oids != nil && cp.subtree:
			// Allowed objects of an unenumerable code set may begin
			// anywhere after the current component; only the current
			// component's own cluster is safely skippable.
			return sc.skipPast(key, offs[pi])
		case cp.oids != nil:
			// Jump to the next allowed (code, oid) point.
			for oid := range cp.oids {
				sc.cand = append(append(sc.cand[:0], cp.code...), encoding.SepByte)
				sc.cand = binary.BigEndian.AppendUint32(sc.cand, uint32(oid))
				consider(sc.cand)
			}
		case cp.subtree:
			sc.cand = append(sc.cand[:0], cp.code...)
			consider(sc.cand)
		default:
			sc.cand = append(append(sc.cand[:0], cp.code...), encoding.SepByte)
			consider(sc.cand)
		}
	}
	sc.skip = out
	if found {
		return out
	}
	// Every alternative lies before the current component: the rest of
	// the parent cluster is irrelevant too.
	return sc.skipPast(key, start)
}

// skipPast returns, in sc.skip, the smallest key beyond every key sharing
// key[:end]. The next byte after a completed path component is always a code
// character (below 0xFF), so appending 0xFF is a valid exclusive successor.
func (sc *matchScratch) skipPast(key []byte, end int) []byte {
	sc.skip = append(append(sc.skip[:0], key[:end]...), 0xFF)
	return sc.skip
}
