package main

// Answer checking. A match list is compared byte-for-byte, as the
// concatenation of the index keys of its matches, with a brute-force scan of
// the object store that never touches an index or the query parser.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"

	uindex "repro"
	"repro/internal/encoding"
)

// canonical serialises an engine answer in the order the engine returned it.
func canonical(t encoding.AttrType, ms []uindex.Match) ([]byte, error) {
	var out, val []byte
	var err error
	for _, m := range ms {
		if val, err = t.AppendValue(val[:0], m.Value); err != nil {
			return nil, err
		}
		out = encoding.AppendKey(out, val, m.Path)
	}
	return out, nil
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func (op *readOp) acceptsClass(sch *uindex.Schema, class string) bool {
	for _, p := range op.classes {
		if class == p.class || p.subtree && sch.IsSubclassOf(class, p.class) {
			return true
		}
	}
	return false
}

// brute answers op from the store alone: every vehicle of the hierarchy,
// dereferenced along the index path, filtered by the predicate, in key order.
func brute(db *uindex.Database, op *readOp) ([]byte, error) {
	st, sch := db.Store(), db.Schema()
	code := sch.Coding().MustCode
	var keys [][]byte
	for _, v := range st.HierarchyExtent("Vehicle") {
		vo, ok := st.Get(v)
		if !ok || !op.acceptsClass(sch, vo.Class) {
			continue
		}
		vehicle := encoding.PathEntry{Code: code(vo.Class), OID: v}
		if op.index == "color" {
			c, _ := vo.Attr("Color")
			colour, _ := c.(string)
			if !slices.Contains(op.colours, colour) {
				continue
			}
			val, err := encoding.AttrString.EncodeValue(colour)
			if err != nil {
				return nil, err
			}
			keys = append(keys, encoding.BuildKey(val, []encoding.PathEntry{vehicle}))
			continue
		}
		c, ok := st.Deref(v, "ManufacturedBy")
		if !ok {
			continue
		}
		e, ok := st.Deref(c, "President")
		if !ok {
			continue
		}
		co, cok := st.Get(c)
		eo, eok := st.Get(e)
		if !cok || !eok {
			continue
		}
		a, _ := eo.Attr("Age")
		age, ok := a.(uint64)
		if !ok {
			return nil, fmt.Errorf("employee %d: Age is %T, want uint64", e, a)
		}
		if age < op.ageLo || age > op.ageHi {
			continue
		}
		val, err := encoding.AttrUint64.EncodeValue(age)
		if err != nil {
			return nil, err
		}
		keys = append(keys, encoding.BuildKey(val, []encoding.PathEntry{
			{Code: code(eo.Class), OID: e}, {Code: code(co.Class), OID: c}, vehicle}))
	}
	slices.SortFunc(keys, bytes.Compare)
	return bytes.Join(keys, nil), nil
}

// checkAnswer compares an engine answer with brute force.
func checkAnswer(db *uindex.Database, op *readOp, ms []uindex.Match) error {
	ix, ok := db.Index(op.index)
	if !ok {
		return fmt.Errorf("index %q missing", op.index)
	}
	got, err := canonical(ix.AttrType(), ms)
	if err != nil {
		return err
	}
	want, err := brute(db, op)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s %s: engine answer (%d matches, %d bytes) differs from brute force (%d bytes)",
			op.index, op.text, len(ms), len(got), len(want))
	}
	return nil
}
