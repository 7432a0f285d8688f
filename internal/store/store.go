// Package store implements the in-memory object base underneath the index
// structures: OID allocation, typed objects validated against a schema,
// per-class extents, and a reverse-reference index used by path-index
// maintenance (when a mid-path object changes, the U-index must find every
// referencing object; Section 3.5 of the paper).
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/encoding"
	"repro/internal/schema"
)

// ErrUnknownClass is returned (wrapped) when an operation names a class the
// schema does not declare; test with errors.Is.
var ErrUnknownClass = errors.New("store: unknown class")

// OID aliases the four-byte object identifier used in index keys.
type OID = encoding.OID

// Attrs is the attribute assignment of one object. Scalar attributes hold
// uint64/int64/float64/string (int accepted for the integer types, and uint
// for uint64 attributes — stored as uint64, see canonical); reference
// attributes hold an OID, or []OID when declared Multi.
type Attrs map[string]any

// canonical maps an accepted value onto its stored form. A uint is the one
// type validation accepts that neither the snapshot nor the log codec writes,
// so it is kept as the uint64 it indexes as: the set of stored value types
// equals the set every codec handles.
func canonical(v any) any {
	if u, ok := v.(uint); ok {
		return uint64(u)
	}
	return v
}

// Object is one stored object instance. A published Object is never
// modified: an update installs a copy, so an Object from Get can be read
// without locks while writers proceed.
type Object struct {
	OID   OID
	Class string
	attrs Attrs
}

// Attr returns the value of an attribute (nil, false when unset).
func (o *Object) Attr(name string) (any, bool) {
	v, ok := o.attrs[name]
	return v, ok
}

// Attrs returns a copy of the object's attribute assignment.
func (o *Object) Attrs() Attrs {
	out := make(Attrs, len(o.attrs))
	for k, v := range o.attrs {
		out[k] = v
	}
	return out
}

// refKey identifies a reverse-reference bucket: all objects whose attribute
// Attr references Target.
type refKey struct {
	Attr   string
	Target OID
}

// Store is an in-memory object base. It is safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	schema  *schema.Schema
	objects map[OID]*Object
	extents map[string][]OID // per exact class, insertion order
	reverse map[refKey][]OID // referencing objects, insertion order
	nextOID OID
}

// New returns an empty store over the given schema.
func New(s *schema.Schema) *Store {
	return &Store{
		schema:  s,
		objects: make(map[OID]*Object),
		extents: make(map[string][]OID),
		reverse: make(map[refKey][]OID),
		nextOID: 1,
	}
}

// Schema returns the schema the store validates against.
func (st *Store) Schema() *schema.Schema { return st.schema }

// Len returns the number of live objects.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.objects)
}

// Insert creates an object of the given (exact) class and returns its OID.
func (st *Store) Insert(class string, attrs Attrs) (OID, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.schema.Class(class); !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownClass, class)
	}
	for name, v := range attrs {
		if err := st.checkValue(class, name, v); err != nil {
			return 0, err
		}
	}
	oid := st.nextOID
	st.nextOID++
	o := &Object{OID: oid, Class: class, attrs: make(Attrs, len(attrs))}
	for k, v := range attrs {
		o.attrs[k] = canonical(v)
		st.linkRefs(oid, k, v)
	}
	st.objects[oid] = o
	st.extents[class] = append(st.extents[class], oid)
	return oid, nil
}

// checkValue validates one attribute value against the schema. Reference
// targets must exist and be instances of the declared class or a subclass.
func (st *Store) checkValue(class, name string, v any) error {
	a, ok := st.schema.AttrOf(class, name)
	if !ok {
		return fmt.Errorf("store: class %q has no attribute %q", class, name)
	}
	if !a.IsRef() {
		if _, err := a.Type.EncodeValue(v); err != nil {
			return fmt.Errorf("store: %s.%s: %w", class, name, err)
		}
		return nil
	}
	check := func(target OID) error {
		to, ok := st.objects[target]
		if !ok {
			return fmt.Errorf("store: %s.%s references missing object %d", class, name, target)
		}
		if !st.schema.IsSubclassOf(to.Class, a.Ref) {
			return fmt.Errorf("store: %s.%s must reference %s, object %d is %s", class, name, a.Ref, target, to.Class)
		}
		return nil
	}
	switch x := v.(type) {
	case OID:
		if a.Multi {
			return fmt.Errorf("store: %s.%s is multi-valued; assign []OID", class, name)
		}
		return check(x)
	case []OID:
		if !a.Multi {
			return fmt.Errorf("store: %s.%s is single-valued; assign OID", class, name)
		}
		for _, t := range x {
			if err := check(t); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("store: %s.%s: reference value must be OID or []OID, got %T", class, name, v)
}

func (st *Store) linkRefs(src OID, attr string, v any) {
	switch x := v.(type) {
	case OID:
		k := refKey{attr, x}
		st.reverse[k] = append(st.reverse[k], src)
	case []OID:
		for _, t := range x {
			k := refKey{attr, t}
			st.reverse[k] = append(st.reverse[k], src)
		}
	}
}

func (st *Store) unlinkRefs(src OID, attr string, v any) {
	drop := func(target OID) {
		k := refKey{attr, target}
		list := st.reverse[k]
		for i, o := range list {
			if o == src {
				st.reverse[k] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(st.reverse[k]) == 0 {
			delete(st.reverse, k)
		}
	}
	switch x := v.(type) {
	case OID:
		drop(x)
	case []OID:
		for _, t := range x {
			drop(t)
		}
	}
}

// Get returns the object with the given OID.
func (st *Store) Get(oid OID) (*Object, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	o, ok := st.objects[oid]
	return o, ok
}

// SetAttr updates one attribute of an object, maintaining the reverse
// reference index. It returns the previous value (nil if unset).
func (st *Store) SetAttr(oid OID, name string, v any) (any, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	o, ok := st.objects[oid]
	if !ok {
		return nil, fmt.Errorf("store: no object %d", oid)
	}
	if err := st.checkValue(o.Class, name, v); err != nil {
		return nil, err
	}
	old := o.attrs[name]
	st.unlinkRefs(oid, name, old)
	st.objects[oid] = o.with(name, canonical(v))
	st.linkRefs(oid, name, v)
	return old, nil
}

// with returns a copy of o with one attribute set.
func (o *Object) with(name string, v any) *Object {
	attrs := make(Attrs, len(o.attrs)+1)
	for k, x := range o.attrs {
		attrs[k] = x
	}
	attrs[name] = v
	return &Object{OID: o.OID, Class: o.Class, attrs: attrs}
}

// Delete removes an object. Objects still referencing it keep their
// (now dangling) OIDs; the paper's update discussion assumes the
// application removes or retargets referers first, and the index layer
// handles its own entries.
func (st *Store) Delete(oid OID) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	o, ok := st.objects[oid]
	if !ok {
		return fmt.Errorf("store: no object %d", oid)
	}
	st.dropLocked(oid, o)
	return nil
}

// ReplayInsert re-applies a logged insert during recovery: the OID is fixed
// (taken from the log record, not allocated), an existing object under that
// OID is replaced, and reference targets are not validated — a later record
// in the log may delete the target, so mid-replay states can dangle in ways
// a live Insert never would. nextOID advances past the replayed OID so
// post-recovery inserts never reuse it.
func (st *Store) ReplayInsert(oid OID, class string, attrs Attrs) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if oid == 0 {
		return fmt.Errorf("store: replay insert with zero OID")
	}
	if _, ok := st.schema.Class(class); !ok {
		return fmt.Errorf("%w %q", ErrUnknownClass, class)
	}
	if old, ok := st.objects[oid]; ok {
		st.dropLocked(oid, old)
	}
	o := &Object{OID: oid, Class: class, attrs: make(Attrs, len(attrs))}
	for k, v := range attrs {
		o.attrs[k] = v
		st.linkRefs(oid, k, v)
	}
	st.objects[oid] = o
	st.extents[class] = append(st.extents[class], oid)
	if oid >= st.nextOID {
		st.nextOID = oid + 1
	}
	return nil
}

// ReplaySet re-applies a logged attribute update during recovery. A missing
// object is a no-op (its delete was also logged and replays later), and the
// value is installed without reference-target validation.
func (st *Store) ReplaySet(oid OID, name string, v any) {
	st.mu.Lock()
	defer st.mu.Unlock()
	o, ok := st.objects[oid]
	if !ok {
		return
	}
	st.unlinkRefs(oid, name, o.attrs[name])
	st.objects[oid] = o.with(name, v)
	st.linkRefs(oid, name, v)
}

// ReplayDelete re-applies a logged delete during recovery; deleting an
// already-absent object is a no-op, which keeps replay idempotent.
func (st *Store) ReplayDelete(oid OID) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if o, ok := st.objects[oid]; ok {
		st.dropLocked(oid, o)
	}
}

// dropLocked removes an object, its reverse-reference links, and its extent
// entry. Caller holds st.mu.
func (st *Store) dropLocked(oid OID, o *Object) {
	for name, v := range o.attrs {
		st.unlinkRefs(oid, name, v)
	}
	delete(st.objects, oid)
	ext := st.extents[o.Class]
	for i, e := range ext {
		if e == oid {
			st.extents[o.Class] = append(ext[:i], ext[i+1:]...)
			break
		}
	}
}

// Extent returns the OIDs of the exact class (no subclasses), in insertion
// order.
func (st *Store) Extent(class string) []OID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return append([]OID(nil), st.extents[class]...)
}

// HierarchyExtent returns the OIDs of the class and all its subclasses,
// sorted by OID.
func (st *Store) HierarchyExtent(class string) []OID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []OID
	for _, c := range st.schema.Subtree(class) {
		out = append(out, st.extents[c]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Referencing returns the objects whose attribute attr references target
// (the reverse REF traversal the path-index update algorithm needs).
func (st *Store) Referencing(attr string, target OID) []OID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return append([]OID(nil), st.reverse[refKey{attr, target}]...)
}

// Deref follows a single-valued reference attribute of an object.
func (st *Store) Deref(oid OID, attr string) (OID, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	o, ok := st.objects[oid]
	if !ok {
		return 0, false
	}
	v, ok := o.attrs[attr]
	if !ok {
		return 0, false
	}
	t, ok := v.(OID)
	return t, ok
}

// DerefMulti follows a reference attribute of an object, returning one or
// many targets uniformly.
func (st *Store) DerefMulti(oid OID, attr string) []OID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	o, ok := st.objects[oid]
	if !ok {
		return nil
	}
	switch x := o.attrs[attr].(type) {
	case OID:
		return []OID{x}
	case []OID:
		return append([]OID(nil), x...)
	}
	return nil
}

// Select scans the hierarchy extent of class and returns the OIDs whose
// attribute satisfies pred — the paper's fallback for unindexed predicates
// ("The companies' object-ids must be first restricted by a select
// operation", Section 3.3).
func (st *Store) Select(class, attr string, pred func(any) bool) []OID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []OID
	for _, c := range st.schema.Subtree(class) {
		for _, oid := range st.extents[c] {
			if v, ok := st.objects[oid].attrs[attr]; ok && pred(v) {
				out = append(out, oid)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RestoredObject is one object of a snapshot being loaded.
type RestoredObject struct {
	OID   OID
	Class string
	Attrs Attrs
}

// Restore replaces the store contents wholesale from a snapshot (the
// persistence path). Objects are installed first and validated second, so
// reference topologies that were built up with SetAttr (including cycles)
// reload correctly regardless of OID order.
func (st *Store) Restore(objs []RestoredObject, nextOID OID) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	objects := make(map[OID]*Object, len(objs))
	extents := make(map[string][]OID)
	for _, ro := range objs {
		if _, ok := st.schema.Class(ro.Class); !ok {
			return fmt.Errorf("store: restore: %w %q", ErrUnknownClass, ro.Class)
		}
		if ro.OID == 0 || ro.OID >= nextOID {
			return fmt.Errorf("store: restore: oid %d out of range", ro.OID)
		}
		if _, dup := objects[ro.OID]; dup {
			return fmt.Errorf("store: restore: duplicate oid %d", ro.OID)
		}
		attrs := make(Attrs, len(ro.Attrs))
		for k, v := range ro.Attrs {
			attrs[k] = v
		}
		objects[ro.OID] = &Object{OID: ro.OID, Class: ro.Class, attrs: attrs}
		extents[ro.Class] = append(extents[ro.Class], ro.OID)
	}
	// Validate with the full object set in place.
	prevObjects := st.objects
	st.objects = objects
	reverse := make(map[refKey][]OID)
	for _, ro := range objs {
		o := objects[ro.OID]
		for name, v := range o.attrs {
			if err := st.checkValue(o.Class, name, v); err != nil {
				st.objects = prevObjects
				return fmt.Errorf("store: restore: object %d: %w", ro.OID, err)
			}
		}
	}
	for _, ro := range objs {
		o := objects[ro.OID]
		for name, v := range o.attrs {
			switch x := v.(type) {
			case OID:
				k := refKey{name, x}
				reverse[k] = append(reverse[k], o.OID)
			case []OID:
				for _, t := range x {
					k := refKey{name, t}
					reverse[k] = append(reverse[k], o.OID)
				}
			}
		}
	}
	st.extents = extents
	st.reverse = reverse
	st.nextOID = nextOID
	return nil
}

// Snapshot returns every object in OID order, plus the next OID to assign —
// the persistence counterpart of Restore.
func (st *Store) Snapshot() ([]RestoredObject, OID) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	oids := make([]OID, 0, len(st.objects))
	for oid := range st.objects {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	out := make([]RestoredObject, 0, len(oids))
	for _, oid := range oids {
		o := st.objects[oid]
		out = append(out, RestoredObject{OID: oid, Class: o.Class, Attrs: o.Attrs()})
	}
	return out, st.nextOID
}
