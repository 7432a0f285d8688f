package nix

import (
	"testing"

	"repro/internal/encoding"
	"repro/internal/pager"
	"repro/internal/schema"
	"repro/internal/store"
)

// fixture mirrors the paper's Example 1 database (see core package tests).
type fixture struct {
	st                     *store.Store
	v1, v2, v3, v4, v5, v6 store.OID
	c1, c2, c3             store.OID
	e1, e2, e3             store.OID
}

func newFixture(t *testing.T) *fixture {
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
	must(s.AddClass("Vehicle", "",
		schema.Attr{Name: "Color", Type: encoding.AttrString},
		schema.Attr{Name: "ManufacturedBy", Ref: "Company"}))
	must(s.AddClass("Automobile", "Vehicle"))
	must(s.AddClass("CompactAutomobile", "Automobile"))
	must(s.AddClass("Truck", "Vehicle"))
	must(s.AddClass("AutoCompany", "Company"))
	must(s.AddClass("JapaneseAutoCompany", "AutoCompany"))
	if _, err := s.AssignCodes(); err != nil {
		t.Fatal(err)
	}
	st := store.New(s)
	f := &fixture{st: st}
	ins := func(class string, attrs store.Attrs) store.OID {
		t.Helper()
		oid, err := st.Insert(class, attrs)
		if err != nil {
			t.Fatal(err)
		}
		return oid
	}
	f.e1 = ins("Employee", store.Attrs{"Age": 50})
	f.e2 = ins("Employee", store.Attrs{"Age": 60})
	f.e3 = ins("Employee", store.Attrs{"Age": 45})
	f.c1 = ins("JapaneseAutoCompany", store.Attrs{"Name": "Subaru", "President": f.e3})
	f.c2 = ins("AutoCompany", store.Attrs{"Name": "Fiat", "President": f.e1})
	f.c3 = ins("AutoCompany", store.Attrs{"Name": "Renault", "President": f.e2})
	f.v1 = ins("Vehicle", store.Attrs{"Color": "White", "ManufacturedBy": f.c1})
	f.v2 = ins("Automobile", store.Attrs{"Color": "White", "ManufacturedBy": f.c2})
	f.v3 = ins("Automobile", store.Attrs{"Color": "Red", "ManufacturedBy": f.c2})
	f.v4 = ins("CompactAutomobile", store.Attrs{"Color": "Red", "ManufacturedBy": f.c3})
	f.v5 = ins("CompactAutomobile", store.Attrs{"Color": "Blue", "ManufacturedBy": f.c1})
	f.v6 = ins("CompactAutomobile", store.Attrs{"Color": "White", "ManufacturedBy": f.c2})
	return f
}

func (f *fixture) ageIndex(t *testing.T) *Index {
	t.Helper()
	ix, err := New(pager.NewMemFile(0), f.st, Spec{
		Name: "nix-age", Root: "Vehicle", Refs: []string{"ManufacturedBy", "President"}, Attr: "Age"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	return ix
}

func wantSet(t *testing.T, got []encoding.OID, want ...store.OID) {
	t.Helper()
	m := map[encoding.OID]bool{}
	for _, g := range got {
		m[g] = true
	}
	if len(m) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for _, w := range want {
		if !m[w] {
			t.Fatalf("missing %d in %v", w, got)
		}
	}
}

func TestValidation(t *testing.T) {
	f := newFixture(t)
	bad := []Spec{
		{Root: "Ghost", Attr: "Age"},
		{Root: "Vehicle", Refs: []string{"Ghost"}, Attr: "Age"},
		{Root: "Vehicle", Refs: []string{"Color"}, Attr: "Age"},
		{Root: "Vehicle", Refs: []string{"ManufacturedBy"}, Attr: "President"},
	}
	for i, spec := range bad {
		if _, err := New(pager.NewMemFile(0), f.st, spec); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestLookupAllPositions: NIX's defining feature — one value lookup serves
// every class along the path, including subclasses.
func TestLookupAllPositions(t *testing.T) {
	f := newFixture(t)
	ix := f.ageIndex(t)
	// Age 50: president e1 of Fiat c2, vehicles v2, v3, v6.
	got, stats, err := ix.Lookup(50, "Vehicle", nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSet(t, got, f.v2, f.v3, f.v6)
	if stats.PagesRead == 0 || stats.RecordsRead != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	got, _, _ = ix.Lookup(50, "Company", nil)
	wantSet(t, got, f.c2)
	got, _, _ = ix.Lookup(50, "Employee", nil)
	wantSet(t, got, f.e1)
	// Subclass queries.
	got, _, _ = ix.Lookup(45, "JapaneseAutoCompany", nil)
	wantSet(t, got, f.c1)
	got, _, _ = ix.Lookup(45, "CompactAutomobile", nil)
	wantSet(t, got, f.v5)
	// Missing value.
	got, _, _ = ix.Lookup(99, "Vehicle", nil)
	if len(got) != 0 {
		t.Fatalf("missing value returned %v", got)
	}
}

func TestLookupRange(t *testing.T) {
	f := newFixture(t)
	ix := f.ageIndex(t)
	got, stats, err := ix.LookupRange(46, 200, "Vehicle", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Ages 50 (v2,v3,v6) and 60 (v4); 45 excluded.
	wantSet(t, got, f.v2, f.v3, f.v4, f.v6)
	if stats.RecordsRead != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestLookupRestricted: mid-path restriction needs auxiliary descents.
func TestLookupRestricted(t *testing.T) {
	f := newFixture(t)
	ix := f.ageIndex(t)
	// White-collar query: vehicles with president age 50, restricted to
	// company c2 — all of Fiat's fleet qualifies.
	got, stats, err := ix.LookupRestricted(50, "Vehicle", "Company", []store.OID{f.c2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSet(t, got, f.v2, f.v3, f.v6)
	if stats.AuxLookups == 0 {
		t.Fatalf("restriction used no aux lookups: %+v", stats)
	}
	// Restricted to a company that does not match.
	got, _, err = ix.LookupRestricted(50, "Vehicle", "Company", []store.OID{f.c1}, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
	// Restriction must be downstream on the path.
	if _, _, err := ix.LookupRestricted(50, "Company", "Vehicle", nil, nil); err == nil {
		t.Error("upstream restriction accepted")
	}
}

// TestUpdateFlow exercises the NIX update path: president switch via
// ValuesThrough + Refresh.
func TestUpdateFlow(t *testing.T) {
	f := newFixture(t)
	ix := f.ageIndex(t)
	before, err := ix.ValuesThrough(f.c2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.st.SetAttr(f.c2, "President", f.e3); err != nil { // 50 -> 45
		t.Fatal(err)
	}
	after, err := ix.ValuesThrough(f.c2)
	if err != nil {
		t.Fatal(err)
	}
	union := map[string]bool{}
	for k := range before {
		union[k] = true
	}
	for k := range after {
		union[k] = true
	}
	if err := ix.Refresh(union); err != nil {
		t.Fatal(err)
	}
	got, _, _ := ix.Lookup(50, "Vehicle", nil)
	if len(got) != 0 {
		t.Fatalf("stale age-50 vehicles: %v", got)
	}
	got, _, _ = ix.Lookup(45, "Vehicle", nil)
	wantSet(t, got, f.v1, f.v5, f.v2, f.v3, f.v6)
	got, _, _ = ix.Lookup(45, "Company", nil)
	wantSet(t, got, f.c1, f.c2)
}

// TestRemoveObject: deleting a vehicle updates the affected record.
func TestRemoveObject(t *testing.T) {
	f := newFixture(t)
	ix := f.ageIndex(t)
	vals, err := ix.RemoveObject(f.v2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.st.Delete(f.v2); err != nil {
		t.Fatal(err)
	}
	if err := ix.Refresh(vals); err != nil {
		t.Fatal(err)
	}
	got, _, _ := ix.Lookup(50, "Vehicle", nil)
	wantSet(t, got, f.v3, f.v6)
	// Companies/employees for age 50 survive (other chains remain).
	got, _, _ = ix.Lookup(50, "Company", nil)
	wantSet(t, got, f.c2)
}

// TestValueDisappears: removing the last chain of a value removes the
// primary record entirely.
func TestValueDisappears(t *testing.T) {
	f := newFixture(t)
	ix := f.ageIndex(t)
	if ix.Len() != 3 {
		t.Fatalf("Len = %d, want 3 values", ix.Len())
	}
	vals, err := ix.RemoveObject(f.v4) // only age-60 vehicle
	if err != nil {
		t.Fatal(err)
	}
	if err := f.st.Delete(f.v4); err != nil {
		t.Fatal(err)
	}
	if err := ix.Refresh(vals); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d after removing the last age-60 chain", ix.Len())
	}
}

func TestBuildTwiceFails(t *testing.T) {
	f := newFixture(t)
	ix := f.ageIndex(t)
	if err := ix.Build(); err == nil {
		t.Error("second Build succeeded")
	}
	if n, err := ix.PageCount(); err != nil || n == 0 {
		t.Errorf("PageCount = %d, %v", n, err)
	}
	ix.DropCache()
}
