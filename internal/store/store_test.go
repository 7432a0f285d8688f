package store

import (
	"testing"

	"repro/internal/encoding"
	"repro/internal/schema"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := schema.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddClass("Employee", "", schema.Attr{Name: "Age", Type: encoding.AttrUint64}))
	must(s.AddClass("Company", "",
		schema.Attr{Name: "Name", Type: encoding.AttrString},
		schema.Attr{Name: "President", Ref: "Employee"}))
	must(s.AddClass("AutoCompany", "Company"))
	must(s.AddClass("Vehicle", "",
		schema.Attr{Name: "Color", Type: encoding.AttrString},
		schema.Attr{Name: "ManufacturedBy", Ref: "Company"},
		schema.Attr{Name: "CoManufacturers", Ref: "Company", Multi: true}))
	must(s.AddClass("Automobile", "Vehicle"))
	if _, err := s.AssignCodes(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInsertGetDelete(t *testing.T) {
	st := New(testSchema(t))
	e, err := st.Insert("Employee", Attrs{"Age": 50})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	o, ok := st.Get(e)
	if !ok || o.Class != "Employee" {
		t.Fatalf("Get = %+v, %v", o, ok)
	}
	if v, ok := o.Attr("Age"); !ok || v.(int) != 50 {
		t.Fatalf("Age = %v, %v", v, ok)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d", st.Len())
	}
	if err := st.Delete(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(e); ok {
		t.Fatal("deleted object still present")
	}
	if err := st.Delete(e); err == nil {
		t.Fatal("double delete succeeded")
	}
	if st.Len() != 0 {
		t.Fatalf("Len = %d after delete", st.Len())
	}
}

func TestInsertValidation(t *testing.T) {
	st := New(testSchema(t))
	if _, err := st.Insert("Ghost", nil); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := st.Insert("Employee", Attrs{"Ghost": 1}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := st.Insert("Employee", Attrs{"Age": "old"}); err == nil {
		t.Error("type mismatch accepted")
	}
	if _, err := st.Insert("Company", Attrs{"President": OID(99)}); err == nil {
		t.Error("dangling reference accepted")
	}
	e, _ := st.Insert("Employee", Attrs{"Age": 40})
	if _, err := st.Insert("Vehicle", Attrs{"ManufacturedBy": e}); err == nil {
		t.Error("reference to wrong class accepted")
	}
	c, _ := st.Insert("Company", Attrs{"President": e})
	if _, err := st.Insert("Vehicle", Attrs{"ManufacturedBy": []OID{c}}); err == nil {
		t.Error("[]OID for single-valued ref accepted")
	}
	if _, err := st.Insert("Vehicle", Attrs{"CoManufacturers": c}); err == nil {
		t.Error("OID for multi-valued ref accepted")
	}
	if _, err := st.Insert("Vehicle", Attrs{"ManufacturedBy": "Fiat"}); err == nil {
		t.Error("non-OID reference value accepted")
	}
}

func TestSubclassReference(t *testing.T) {
	st := New(testSchema(t))
	e, _ := st.Insert("Employee", Attrs{"Age": 45})
	ac, err := st.Insert("AutoCompany", Attrs{"President": e})
	if err != nil {
		t.Fatal(err)
	}
	// A Vehicle may reference an AutoCompany where a Company is declared.
	if _, err := st.Insert("Vehicle", Attrs{"ManufacturedBy": ac}); err != nil {
		t.Fatalf("subclass reference rejected: %v", err)
	}
}

func TestExtents(t *testing.T) {
	st := New(testSchema(t))
	e, _ := st.Insert("Employee", Attrs{"Age": 45})
	c, _ := st.Insert("Company", Attrs{"President": e})
	ac, _ := st.Insert("AutoCompany", Attrs{"President": e})
	if got := st.Extent("Company"); len(got) != 1 || got[0] != c {
		t.Fatalf("Extent(Company) = %v", got)
	}
	he := st.HierarchyExtent("Company")
	if len(he) != 2 || he[0] != c || he[1] != ac {
		t.Fatalf("HierarchyExtent(Company) = %v", he)
	}
	if got := st.Extent("Vehicle"); len(got) != 0 {
		t.Fatalf("Extent(Vehicle) = %v", got)
	}
}

func TestReverseReferences(t *testing.T) {
	st := New(testSchema(t))
	e1, _ := st.Insert("Employee", Attrs{"Age": 50})
	e2, _ := st.Insert("Employee", Attrs{"Age": 60})
	c1, _ := st.Insert("Company", Attrs{"President": e1})
	c2, _ := st.Insert("Company", Attrs{"President": e1})
	if got := st.Referencing("President", e1); len(got) != 2 || got[0] != c1 || got[1] != c2 {
		t.Fatalf("Referencing = %v", got)
	}
	// The paper's running update example: a president switches companies.
	if _, err := st.SetAttr(c1, "President", e2); err != nil {
		t.Fatal(err)
	}
	if got := st.Referencing("President", e1); len(got) != 1 || got[0] != c2 {
		t.Fatalf("Referencing after SetAttr = %v", got)
	}
	if got := st.Referencing("President", e2); len(got) != 1 || got[0] != c1 {
		t.Fatalf("Referencing new president = %v", got)
	}
	// Deleting an object unlinks its outgoing references.
	if err := st.Delete(c2); err != nil {
		t.Fatal(err)
	}
	if got := st.Referencing("President", e1); len(got) != 0 {
		t.Fatalf("Referencing after delete = %v", got)
	}
}

func TestMultiValueReferences(t *testing.T) {
	st := New(testSchema(t))
	e, _ := st.Insert("Employee", Attrs{"Age": 45})
	c1, _ := st.Insert("Company", Attrs{"President": e})
	c2, _ := st.Insert("Company", Attrs{"President": e})
	v, err := st.Insert("Vehicle", Attrs{"Color": "Red", "CoManufacturers": []OID{c1, c2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Referencing("CoManufacturers", c1); len(got) != 1 || got[0] != v {
		t.Fatalf("Referencing multi = %v", got)
	}
	if got := st.DerefMulti(v, "CoManufacturers"); len(got) != 2 {
		t.Fatalf("DerefMulti = %v", got)
	}
	if got := st.DerefMulti(v, "ManufacturedBy"); got != nil {
		t.Fatalf("DerefMulti unset = %v", got)
	}
}

func TestDeref(t *testing.T) {
	st := New(testSchema(t))
	e, _ := st.Insert("Employee", Attrs{"Age": 45})
	c, _ := st.Insert("Company", Attrs{"President": e})
	got, ok := st.Deref(c, "President")
	if !ok || got != e {
		t.Fatalf("Deref = %v, %v", got, ok)
	}
	if _, ok := st.Deref(c, "Name"); ok {
		t.Error("Deref of unset attr succeeded")
	}
	if _, ok := st.Deref(999, "President"); ok {
		t.Error("Deref of missing object succeeded")
	}
}

func TestSetAttrValidation(t *testing.T) {
	st := New(testSchema(t))
	e, _ := st.Insert("Employee", Attrs{"Age": 45})
	if _, err := st.SetAttr(999, "Age", 1); err == nil {
		t.Error("SetAttr on missing object succeeded")
	}
	if _, err := st.SetAttr(e, "Age", "old"); err == nil {
		t.Error("SetAttr with wrong type succeeded")
	}
	old, err := st.SetAttr(e, "Age", 46)
	if err != nil || old.(int) != 45 {
		t.Fatalf("SetAttr returned old=%v err=%v", old, err)
	}
}

func TestSelect(t *testing.T) {
	st := New(testSchema(t))
	for i := 0; i < 10; i++ {
		if _, err := st.Insert("Employee", Attrs{"Age": 40 + i}); err != nil {
			t.Fatal(err)
		}
	}
	got := st.Select("Employee", "Age", func(v any) bool { return v.(int) >= 45 })
	if len(got) != 5 {
		t.Fatalf("Select = %v", got)
	}
}

func TestAttrsCopy(t *testing.T) {
	st := New(testSchema(t))
	e, _ := st.Insert("Employee", Attrs{"Age": 45})
	o, _ := st.Get(e)
	cp := o.Attrs()
	cp["Age"] = 99
	if v, _ := o.Attr("Age"); v.(int) != 45 {
		t.Fatal("Attrs() exposed internal state")
	}
}

func TestSnapshotRestore(t *testing.T) {
	st := New(testSchema(t))
	e, _ := st.Insert("Employee", Attrs{"Age": 45})
	c, _ := st.Insert("Company", Attrs{"Name": "Fiat", "President": e})
	v, _ := st.Insert("Vehicle", Attrs{"Color": "Red", "ManufacturedBy": c})
	if err := st.Delete(v); err != nil { // leave a gap in the OID space
		t.Fatal(err)
	}
	objs, next := st.Snapshot()
	if len(objs) != 2 || next != 4 {
		t.Fatalf("Snapshot = %d objects, next %d", len(objs), next)
	}
	if objs[0].OID != e || objs[1].OID != c {
		t.Fatalf("Snapshot not in OID order: %+v", objs)
	}
	// Snapshot attrs are copies.
	objs[0].Attrs["Age"] = 99
	if got, _ := st.Get(e); func() any { v, _ := got.Attr("Age"); return v }().(int) != 45 {
		t.Fatal("Snapshot aliases store state")
	}
	objs[0].Attrs["Age"] = 45

	st2 := New(testSchema(t))
	if err := st2.Restore(objs, next); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if st2.Len() != 2 {
		t.Fatalf("restored Len = %d", st2.Len())
	}
	// Reverse refs rebuilt.
	if got := st2.Referencing("President", e); len(got) != 1 || got[0] != c {
		t.Fatalf("restored Referencing = %v", got)
	}
	// OID allocation continues past the snapshot.
	n, err := st2.Insert("Employee", Attrs{"Age": 30})
	if err != nil || n != 4 {
		t.Fatalf("post-restore Insert = %d, %v", n, err)
	}
	if st2.Schema() == nil {
		t.Fatal("Schema accessor broken")
	}
}

func TestRestoreValidation(t *testing.T) {
	st := New(testSchema(t))
	cases := []struct {
		name string
		objs []RestoredObject
		next OID
	}{
		{"unknown class", []RestoredObject{{OID: 1, Class: "Ghost"}}, 2},
		{"oid zero", []RestoredObject{{OID: 0, Class: "Employee"}}, 2},
		{"oid out of range", []RestoredObject{{OID: 5, Class: "Employee"}}, 2},
		{"duplicate oid", []RestoredObject{
			{OID: 1, Class: "Employee"}, {OID: 1, Class: "Employee"}}, 3},
		{"dangling reference", []RestoredObject{
			{OID: 1, Class: "Company", Attrs: Attrs{"President": OID(9)}}}, 10},
		{"wrong-class reference", []RestoredObject{
			{OID: 1, Class: "Employee", Attrs: Attrs{"Age": 4}},
			{OID: 2, Class: "Vehicle", Attrs: Attrs{"ManufacturedBy": OID(1)}}}, 3},
	}
	for _, tc := range cases {
		if err := st.Restore(tc.objs, tc.next); err == nil {
			t.Errorf("Restore(%s) succeeded, want error", tc.name)
		}
	}
	// A failed restore leaves the store usable.
	if _, err := st.Insert("Employee", Attrs{"Age": 40}); err != nil {
		t.Fatalf("store unusable after failed restore: %v", err)
	}
}

// TestRestoreForwardReferences: topologies only reachable via SetAttr
// (references "forward" in OID order) restore fine.
func TestRestoreForwardReferences(t *testing.T) {
	st := New(testSchema(t))
	err := st.Restore([]RestoredObject{
		{OID: 1, Class: "Company", Attrs: Attrs{"President": OID(2)}},
		{OID: 2, Class: "Employee", Attrs: Attrs{"Age": 50}},
	}, 3)
	if err != nil {
		t.Fatalf("forward-reference restore: %v", err)
	}
	if got, ok := st.Deref(1, "President"); !ok || got != 2 {
		t.Fatalf("Deref after restore = %v, %v", got, ok)
	}
}

// TestReinstall: undoing edits restores each prior object into its OID-ordered
// extent place, and an undone insert gives its OID back only when no object
// references it and no later insert took one. A replayed reference keeps
// nextOID above the OID it names.
func TestReinstall(t *testing.T) {
	st := New(testSchema(t))
	e1, _ := st.Insert("Employee", Attrs{"Age": 30})
	e2, _ := st.Insert("Employee", Attrs{"Age": 40})
	c, _ := st.Insert("Company", Attrs{"President": e1})

	// An undone delete of e1 puts it back ahead of e2 in the extent.
	prev, _ := st.Get(e1)
	if err := st.Delete(e1); err != nil {
		t.Fatal(err)
	}
	st.Reinstall(e1, nil, prev)
	if got := st.Extent("Employee"); len(got) != 2 || got[0] != e1 || got[1] != e2 {
		t.Fatalf("Extent(Employee) after an undone delete = %v", got)
	}
	if got := st.Referencing("President", e1); len(got) != 1 || got[0] != c {
		t.Fatalf("Referencing(President, e1) = %v", got)
	}

	// An unreferenced undone insert gives its OID back.
	e3, _ := st.Insert("Employee", Attrs{"Age": 50})
	cur, _ := st.Get(e3)
	st.Reinstall(e3, cur, nil)
	if _, next := st.Snapshot(); next != e3 {
		t.Fatalf("next OID after an undone insert = %d, want %d", next, e3)
	}

	// A referenced one does not: the next insert must not inherit the
	// reference.
	e3, _ = st.Insert("Employee", Attrs{"Age": 50})
	cur, _ = st.Get(e3)
	if _, err := st.SetAttr(c, "President", e3); err != nil {
		t.Fatal(err)
	}
	st.Reinstall(e3, cur, nil)
	if _, next := st.Snapshot(); next != e3+1 {
		t.Fatalf("next OID after an undone referenced insert = %d, want %d", next, e3+1)
	}

	// A reinstall where the store no longer holds the call's object is a
	// no-op.
	st.Reinstall(e2, cur, nil)
	if _, ok := st.Get(e2); !ok {
		t.Fatal("Reinstall dropped an object the call did not install")
	}

	// Replay installs references unvalidated; nextOID moves past them.
	st.ReplaySet(c, "President", OID(100))
	if _, next := st.Snapshot(); next != 101 {
		t.Fatalf("next OID after a replayed reference to 100 = %d, want 101", next)
	}
}
