package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/encoding"
	"repro/internal/pager"
	"repro/internal/schema"
	"repro/internal/store"
)

// fixture reproduces the paper's Figure 1 schema and Example 1 database.
type fixture struct {
	sch *schema.Schema
	st  *store.Store
	// Example 1 objects, by the paper's names.
	v1, v2, v3, v4, v5, v6 store.OID // vehicles
	c1, c2, c3             store.OID // companies
	e1, e2, e3             store.OID // employees
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
	must(s.AddClass("City", "", schema.Attr{Name: "Name", Type: encoding.AttrString}))
	must(s.AddClass("Division", "",
		schema.Attr{Name: "Belong", Ref: "Company"},
		schema.Attr{Name: "LocatedIn", Ref: "City"}))
	must(s.AddClass("Vehicle", "",
		schema.Attr{Name: "Name", Type: encoding.AttrString},
		schema.Attr{Name: "Color", Type: encoding.AttrString},
		schema.Attr{Name: "ManufacturedBy", Ref: "Company"}))
	must(s.AddClass("Automobile", "Vehicle"))
	must(s.AddClass("Truck", "Vehicle"))
	must(s.AddClass("CompactAutomobile", "Automobile"))
	must(s.AddClass("AutoCompany", "Company"))
	must(s.AddClass("TruckCompany", "Company"))
	must(s.AddClass("JapaneseAutoCompany", "AutoCompany"))
	if _, err := s.AssignCodes(); err != nil {
		t.Fatal(err)
	}

	st := store.New(s)
	f := &fixture{sch: s, st: st}
	ins := func(class string, attrs store.Attrs) store.OID {
		t.Helper()
		oid, err := st.Insert(class, attrs)
		if err != nil {
			t.Fatal(err)
		}
		return oid
	}
	// Example 1 (paper Section 3.2). Employee ages: e1=50, e2=60, e3=45.
	f.e1 = ins("Employee", store.Attrs{"Age": 50})
	f.e2 = ins("Employee", store.Attrs{"Age": 60})
	f.e3 = ins("Employee", store.Attrs{"Age": 45})
	// Companies: c1 Subaru (japanese, president e3), c2 Fiat (auto, e1),
	// c3 Renault (auto, e2).
	f.c1 = ins("JapaneseAutoCompany", store.Attrs{"Name": "Subaru", "President": f.e3})
	f.c2 = ins("AutoCompany", store.Attrs{"Name": "Fiat", "President": f.e1})
	f.c3 = ins("AutoCompany", store.Attrs{"Name": "Renault", "President": f.e2})
	// Vehicles: v1 Legacy (vehicle, White, c1), v2 Tipo (automobile,
	// White, c2), v3 Panda (automobile, Red, c2), v4 R5 (compact, Red,
	// c3), v5 Justy (compact, Blue, c1), v6 Uno (compact, White, c2).
	f.v1 = ins("Vehicle", store.Attrs{"Name": "Legacy", "Color": "White", "ManufacturedBy": f.c1})
	f.v2 = ins("Automobile", store.Attrs{"Name": "Tipo", "Color": "White", "ManufacturedBy": f.c2})
	f.v3 = ins("Automobile", store.Attrs{"Name": "Panda", "Color": "Red", "ManufacturedBy": f.c2})
	f.v4 = ins("CompactAutomobile", store.Attrs{"Name": "R5", "Color": "Red", "ManufacturedBy": f.c3})
	f.v5 = ins("CompactAutomobile", store.Attrs{"Name": "Justy", "Color": "Blue", "ManufacturedBy": f.c1})
	f.v6 = ins("CompactAutomobile", store.Attrs{"Name": "Uno", "Color": "White", "ManufacturedBy": f.c2})
	return f
}

// newGroup builds a one-shard in-memory group of spec over st.
func newGroup(st *store.Store, spec Spec) (*Sharded, error) {
	return NewSharded(st, spec, nil, []pager.File{pager.NewMemFile(0)}, nil)
}

// mustGroup is newGroup failing the test on error.
func mustGroup(t *testing.T, st *store.Store, spec Spec) *Sharded {
	t.Helper()
	sh, err := newGroup(st, spec)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// colorIndex builds the class-hierarchy U-index on Vehicle.Color.
func (f *fixture) colorIndex(t *testing.T) *Sharded {
	t.Helper()
	return mustGroup(t, f.st, Spec{Name: "veh-color", Root: "Vehicle", Attr: "Color"})
}

// ageIndex builds the combined path index Vehicle/Company/Employee on Age.
func (f *fixture) ageIndex(t *testing.T) *Sharded {
	t.Helper()
	return mustGroup(t, f.st, Spec{
		Name: "veh-age",
		Root: "Vehicle",
		Refs: []string{"ManufacturedBy", "President"},
		Attr: "Age",
	})
}

// update moves the group's entries of oid from olds to its current entries
// — EntriesFor → DiffKeys → ApplyKeys into one transaction per shard, then
// commit, the engine's index-maintenance step.
// olds is nil for an object just stored; delete the object from the store
// after an update with gone set, which drops its entries.
func update(t *testing.T, sh *Sharded, oid store.OID, olds [][]byte, gone bool) {
	t.Helper()
	var news [][]byte
	if !gone {
		var err error
		if news, err = sh.EntriesFor(oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := commitKeys(sh, sh.AllShards(), olds, news); err != nil {
		t.Fatal(err)
	}
}

// commitKeys applies the DiffKeys of olds and news into one transaction on
// each shard of the mask and commits them, aborting all on an error.
func commitKeys(sh *Sharded, mask uint64, olds, news [][]byte) error {
	txs := sh.Begin(mask)
	dels, ins := DiffKeys(olds, news)
	err := sh.ApplyKeys(txs, dels, ins)
	for _, tx := range txs {
		switch {
		case tx == nil:
		case err != nil:
			tx.Abort(nil)
		default:
			err = tx.Commit()
		}
	}
	return err
}

// entries is EntriesFor failing the test on error.
func entries(t *testing.T, sh *Sharded, oid store.OID) [][]byte {
	t.Helper()
	keys, err := sh.EntriesFor(oid)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func oidsAt(ms []Match, pos int) map[store.OID]bool {
	out := map[store.OID]bool{}
	for _, m := range ms {
		out[m.Path[pos].OID] = true
	}
	return out
}

func wantOIDs(t *testing.T, got map[store.OID]bool, want ...store.OID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d oids %v, want %d %v", len(got), got, len(want), want)
	}
	for _, w := range want {
		if !got[w] {
			t.Fatalf("missing oid %d in %v", w, got)
		}
	}
}

func TestIndexValidation(t *testing.T) {
	f := newFixture(t)
	cases := []Spec{
		{Name: "x", Root: "Ghost", Attr: "Color"},
		{Name: "x", Root: "Vehicle", Attr: "Ghost"},
		{Name: "x", Root: "Vehicle", Refs: []string{"Ghost"}, Attr: "Age"},
		{Name: "x", Root: "Vehicle", Refs: []string{"Color"}, Attr: "Age"},                // not a ref
		{Name: "x", Root: "Vehicle", Refs: []string{"ManufacturedBy"}, Attr: "President"}, // ref as attr
	}
	for i, spec := range cases {
		if _, err := newGroup(f.st, spec); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, spec)
		}
	}
	// No coding assigned.
	s2 := schema.New()
	if err := s2.AddClass("A", "", schema.Attr{Name: "x", Type: encoding.AttrUint64}); err != nil {
		t.Fatal(err)
	}
	if _, err := newGroup(store.New(s2), Spec{Name: "x", Root: "A", Attr: "x"}); err == nil {
		t.Error("index over uncoded schema accepted")
	}
}

func TestBuildEntryCount(t *testing.T) {
	f := newFixture(t)
	color := f.colorIndex(t)
	if color.Len() != 6 {
		t.Fatalf("color index has %d entries, want 6", color.Len())
	}
	age := f.ageIndex(t)
	if age.Len() != 6 {
		t.Fatalf("age index has %d entries, want 6 (one per vehicle)", age.Len())
	}
	if got := age.Prototype().PathClasses(); len(got) != 3 || got[0] != "Vehicle" || got[2] != "Employee" {
		t.Fatalf("PathClasses = %v", got)
	}
}

// TestCHQueries runs the paper's Section 3.3 class-hierarchy queries 1-3.
func TestCHQueries(t *testing.T) {
	f := newFixture(t)
	ix := f.colorIndex(t)
	for _, alg := range []Algorithm{Parallel, Forward} {
		t.Run(alg.String(), func(t *testing.T) {
			// Query 1: all vehicles (of all types) with red color.
			ms, _, err := ix.Execute(Query{Value: Exact("Red"), Positions: []Position{On("Vehicle")}}, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantOIDs(t, oidsAt(ms, 0), f.v3, f.v4)
			// Query 2: all automobiles (and subclasses) with red color.
			ms, _, err = ix.Execute(Query{Value: Exact("Red"), Positions: []Position{On("Automobile")}}, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantOIDs(t, oidsAt(ms, 0), f.v3, f.v4)
			// All white vehicles.
			ms, _, err = ix.Execute(Query{Value: Exact("White"), Positions: []Position{On("Vehicle")}}, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantOIDs(t, oidsAt(ms, 0), f.v1, f.v2, f.v6)
			// Exact class only: class Vehicle itself, white.
			ms, _, err = ix.Execute(Query{Value: Exact("White"), Positions: []Position{OnExact("Vehicle")}}, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantOIDs(t, oidsAt(ms, 0), f.v1)
			// Exact class Automobile (not compacts), white.
			ms, _, err = ix.Execute(Query{Value: Exact("White"), Positions: []Position{OnExact("Automobile")}}, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantOIDs(t, oidsAt(ms, 0), f.v2)
		})
	}
}

// TestCHQuery4 is the paper's "problematic" query: vehicles that are NOT
// compact automobiles, with red color — expressed as the union of the other
// classes, exercising multi-alternative positions.
func TestCHQuery4(t *testing.T) {
	f := newFixture(t)
	ix := f.colorIndex(t)
	q := Query{
		Value: Exact("Red"),
		Positions: []Position{{Alts: []ClassPattern{
			{Class: "Vehicle"},    // exact
			{Class: "Automobile"}, // exact (excludes compacts)
			{Class: "Truck", Subtree: true},
		}}},
	}
	for _, alg := range []Algorithm{Parallel, Forward} {
		ms, _, err := ix.Execute(q, alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantOIDs(t, oidsAt(ms, 0), f.v3) // v4 is compact, excluded
	}
}

// TestCHQuery5 is the paper's query 5: automobiles or trucks (with
// subclasses) with red color — "[C5A*, C5B]".
func TestCHQuery5(t *testing.T) {
	f := newFixture(t)
	ix := f.colorIndex(t)
	q := Query{Value: Exact("Red"), Positions: []Position{OneOfClasses("Automobile", "Truck")}}
	ms, _, err := ix.Execute(q, Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOIDs(t, oidsAt(ms, 0), f.v3, f.v4)
}

// TestRangeQueries covers enumerated multi-value and continuous ranges.
func TestRangeQueries(t *testing.T) {
	f := newFixture(t)
	ix := f.colorIndex(t)
	// Red or blue compacts.
	ms, _, err := ix.Execute(Query{
		Value:     OneOf("Blue", "Red"),
		Positions: []Position{On("CompactAutomobile")},
	}, Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOIDs(t, oidsAt(ms, 0), f.v4, f.v5)
	// Continuous range Blue..Red over all vehicles (string order:
	// Blue < Red < White).
	ms, _, err = ix.Execute(Query{
		Value:     Range("Blue", "Red"),
		Positions: []Position{On("Vehicle")},
	}, Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOIDs(t, oidsAt(ms, 0), f.v3, f.v4, f.v5)
	// Open-ended range: everything >= Red.
	ms, _, err = ix.Execute(Query{Value: Range("Red", nil)}, Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOIDs(t, oidsAt(ms, 0), f.v1, f.v2, f.v3, f.v4, f.v6)
}

// TestPathQueries runs the paper's Section 3.3 path-index queries.
func TestPathQueries(t *testing.T) {
	f := newFixture(t)
	ix := f.ageIndex(t)
	for _, alg := range []Algorithm{Parallel, Forward} {
		t.Run(alg.String(), func(t *testing.T) {
			// Path query 1: vehicles manufactured by a company whose
			// president's age is 50 (president e1 -> Fiat c2 -> v2, v3, v6).
			ms, _, err := ix.Execute(Query{Value: Exact(50)}, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantOIDs(t, oidsAt(ms, 2), f.v2, f.v3, f.v6)
			// Each match carries the full path: employee then company.
			for _, m := range ms {
				if m.Path[0].OID != f.e1 || m.Path[1].OID != f.c2 {
					t.Fatalf("path = %+v", m.Path)
				}
			}
			// Path query 2: same, restricted to a particular company.
			ms, _, err = ix.Execute(Query{
				Value:     Exact(50),
				Positions: []Position{Any, OnObjects("Company", f.c2)},
			}, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantOIDs(t, oidsAt(ms, 2), f.v2, f.v3, f.v6)
			// ... and to a company that does not match.
			ms, _, err = ix.Execute(Query{
				Value:     Exact(50),
				Positions: []Position{Any, OnObjects("Company", f.c1)},
			}, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) != 0 {
				t.Fatalf("restricting to c1 still yielded %d matches", len(ms))
			}
			// Path query 4: all companies whose president's age is 50
			// (distinct company prefixes; Distinct=2 covers employee+company).
			ms, _, err = ix.Execute(Query{Value: Exact(50), Distinct: 2}, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) != 1 || ms[0].Path[1].OID != f.c2 {
				t.Fatalf("distinct companies = %+v", ms)
			}
			// Age above 50: presidents e1 (50) excluded, e2 (60) included.
			ms, _, err = ix.Execute(Query{Value: Range(51, nil)}, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantOIDs(t, oidsAt(ms, 2), f.v4)
		})
	}
}

// TestCombinedQueries runs the paper's combined class-hierarchy/path
// queries ("find the vehicles manufactured by Japanese autocompanies whose
// President's age is ..."), which neither a CH index nor a plain path index
// can answer alone.
func TestCombinedQueries(t *testing.T) {
	f := newFixture(t)
	ix := f.ageIndex(t)
	// Vehicles made by Japanese auto companies whose president is 45
	// (Subaru c1, president e3=45; vehicles v1, v5).
	ms, _, err := ix.Execute(Query{
		Value:     Exact(45),
		Positions: []Position{Any, On("JapaneseAutoCompany")},
	}, Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOIDs(t, oidsAt(ms, 2), f.v1, f.v5)
	// Compact automobiles made by Japanese auto companies (v5 only).
	ms, _, err = ix.Execute(Query{
		Value:     Exact(45),
		Positions: []Position{Any, On("JapaneseAutoCompany"), On("CompactAutomobile")},
	}, Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOIDs(t, oidsAt(ms, 2), f.v5)
	// The paper's query: automobiles (with subclasses) by AutoCompanies
	// with president age above 50 — Renault c3 (e2=60) makes v4.
	ms, _, err = ix.Execute(Query{
		Value:     Range(51, 200),
		Positions: []Position{Any, On("AutoCompany"), On("Automobile")},
	}, Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOIDs(t, oidsAt(ms, 2), f.v4)
}

// TestAlgorithmsAgree: both algorithms must return identical matches on a
// grid of query shapes.
func TestAlgorithmsAgree(t *testing.T) {
	f := newFixture(t)
	color := f.colorIndex(t)
	age := f.ageIndex(t)
	queries := []struct {
		ix *Sharded
		q  Query
	}{
		{color, Query{Value: Exact("Red")}},
		{color, Query{Value: OneOf("Blue", "Red", "White"), Positions: []Position{On("Automobile")}}},
		{color, Query{Value: Range("Blue", "White")}},
		{color, Query{Value: Exact("White"), Positions: []Position{OnExact("Vehicle")}}},
		{age, Query{Value: Exact(50)}},
		{age, Query{Value: Range(40, 60), Positions: []Position{Any, On("AutoCompany")}}},
		{age, Query{Value: Exact(50), Distinct: 2}},
		{age, Query{Value: OneOf(45, 60), Positions: []Position{Any, Any, On("CompactAutomobile")}}},
	}
	for i, tc := range queries {
		a, _, err := tc.ix.Execute(tc.q, Parallel, nil)
		if err != nil {
			t.Fatalf("query %d parallel: %v", i, err)
		}
		b, _, err := tc.ix.Execute(tc.q, Forward, nil)
		if err != nil {
			t.Fatalf("query %d forward: %v", i, err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %d: parallel %d matches, forward %d", i, len(a), len(b))
		}
		for j := range a {
			if fmt.Sprint(a[j]) != fmt.Sprint(b[j]) {
				t.Fatalf("query %d: match %d differs: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
}

// TestIncrementalMaintenance: incremental inserts and deletes keep the index
// equal to a fresh build.
func TestIncrementalMaintenance(t *testing.T) {
	f := newFixture(t)
	ix := f.ageIndex(t)
	// New employee, company, vehicle added incrementally.
	e4, err := f.st.Insert("Employee", store.Attrs{"Age": 55})
	if err != nil {
		t.Fatal(err)
	}
	update(t, ix, e4, nil, false)
	c4, err := f.st.Insert("TruckCompany", store.Attrs{"Name": "Volvo", "President": e4})
	if err != nil {
		t.Fatal(err)
	}
	update(t, ix, c4, nil, false)
	v7, err := f.st.Insert("Truck", store.Attrs{"Name": "FH16", "Color": "Blue", "ManufacturedBy": c4})
	if err != nil {
		t.Fatal(err)
	}
	update(t, ix, v7, nil, false)
	ms, _, err := ix.Execute(Query{Value: Exact(55)}, Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantOIDs(t, oidsAt(ms, 2), v7)
	if ix.Len() != 7 {
		t.Fatalf("Len = %d, want 7", ix.Len())
	}
	// Remove the vehicle again.
	update(t, ix, v7, entries(t, ix, v7), true)
	if err := f.st.Delete(v7); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 6 {
		t.Fatalf("Len after remove = %d, want 6", ix.Len())
	}
	ms, _, _ = ix.Execute(Query{Value: Exact(55)}, Parallel, nil)
	if len(ms) != 0 {
		t.Fatalf("entries for removed vehicle remain: %v", ms)
	}
}

// TestPresidentSwitch reproduces the paper's running update example
// (Sections 3.5, 4.2): a company replaces its president; all old entries
// are deleted and new ones inserted, as a batch diff.
func TestPresidentSwitch(t *testing.T) {
	f := newFixture(t)
	ix := f.ageIndex(t)
	// Fiat (c2) replaces president e1 (50) with e3 (45).
	oldKeys := entries(t, ix, f.c2)
	if len(oldKeys) != 3 {
		t.Fatalf("c2 participates in %d entries, want 3", len(oldKeys))
	}
	if _, err := f.st.SetAttr(f.c2, "President", f.e3); err != nil {
		t.Fatal(err)
	}
	update(t, ix, f.c2, oldKeys, false)
	if ix.Len() != 6 {
		t.Fatalf("Len = %d after president switch", ix.Len())
	}
	// Age-50 vehicles are gone; 45 now includes Fiat's fleet.
	ms, _, _ := ix.Execute(Query{Value: Exact(50)}, Parallel, nil)
	if len(ms) != 0 {
		t.Fatalf("stale entries for age 50: %v", ms)
	}
	ms, _, _ = ix.Execute(Query{Value: Exact(45)}, Parallel, nil)
	wantOIDs(t, oidsAt(ms, 2), f.v1, f.v5, f.v2, f.v3, f.v6)
}

// TestTerminalAttrChange: changing the indexed attribute itself.
func TestTerminalAttrChange(t *testing.T) {
	f := newFixture(t)
	ix := f.ageIndex(t)
	oldKeys := entries(t, ix, f.e1)
	if _, err := f.st.SetAttr(f.e1, "Age", 51); err != nil {
		t.Fatal(err)
	}
	update(t, ix, f.e1, oldKeys, false)
	ms, _, _ := ix.Execute(Query{Value: Exact(51)}, Parallel, nil)
	wantOIDs(t, oidsAt(ms, 2), f.v2, f.v3, f.v6)
}

// TestMultiValueRefs: a vehicle co-manufactured by two companies appears in
// two path entries (Section 4.3).
func TestMultiValueRefs(t *testing.T) {
	s := schema.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddClass("Employee", "", schema.Attr{Name: "Age", Type: encoding.AttrUint64}))
	must(s.AddClass("Company", "", schema.Attr{Name: "President", Ref: "Employee"}))
	must(s.AddClass("Vehicle", "",
		schema.Attr{Name: "MadeBy", Ref: "Company", Multi: true}))
	if _, err := s.AssignCodes(); err != nil {
		t.Fatal(err)
	}
	st := store.New(s)
	e, _ := st.Insert("Employee", store.Attrs{"Age": 50})
	ca, _ := st.Insert("Company", store.Attrs{"President": e})
	cb, _ := st.Insert("Company", store.Attrs{"President": e})
	v, _ := st.Insert("Vehicle", store.Attrs{"MadeBy": []store.OID{ca, cb}})
	ix := mustGroup(t, st, Spec{Name: "x", Root: "Vehicle", Refs: []string{"MadeBy", "President"}, Attr: "Age"})
	if ix.Len() != 2 {
		t.Fatalf("multi-value vehicle has %d entries, want 2", ix.Len())
	}
	ms, _, err := ix.Execute(Query{Value: Exact(50)}, Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("%d matches, want 2", len(ms))
	}
	for _, m := range ms {
		if m.Path[2].OID != v {
			t.Fatalf("path = %+v", m.Path)
		}
	}
	// Deleting the vehicle removes both entries (the "not particularly
	// good" update case the paper flags — both are simple deletes here).
	update(t, ix, v, entries(t, ix, v), true)
	if ix.Len() != 0 {
		t.Fatalf("Len = %d after multi-value remove", ix.Len())
	}
}

// TestIndexOverAlternateCoding: a REF cycle forces a per-index coding
// (Section 4.3).
func TestIndexOverAlternateCoding(t *testing.T) {
	s := schema.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddClass("Employee", "",
		schema.Attr{Name: "Age", Type: encoding.AttrUint64},
		schema.Attr{Name: "Owns", Ref: "Auto", Multi: true}))
	must(s.AddClass("Auto", "",
		schema.Attr{Name: "Mileage", Type: encoding.AttrUint64},
		schema.Attr{Name: "UsedBy", Ref: "Employee"}))
	if _, err := s.AssignCodes(); err != nil {
		t.Fatal(err)
	}
	st := store.New(s)
	e, _ := st.Insert("Employee", store.Attrs{"Age": 30})
	a, _ := st.Insert("Auto", store.Attrs{"Mileage": 90, "UsedBy": e})
	if _, err := st.SetAttr(e, "Owns", []store.OID{a}); err != nil {
		t.Fatal(err)
	}

	// Default coding honors Owns (Auto < Employee), so the Owns-path
	// index works directly.
	if _, err := newGroup(st, Spec{Name: "owns", Root: "Employee", Refs: []string{"Owns"}, Attr: "Mileage"}); err != nil {
		t.Fatalf("owns index: %v", err)
	}
	// The UsedBy path conflicts with the default coding...
	if _, err := newGroup(st, Spec{Name: "used", Root: "Auto", Refs: []string{"UsedBy"}, Attr: "Age"}); err == nil {
		t.Fatal("UsedBy index over default coding accepted")
	}
	// ...and works over the alternate coding.
	alt, err := s.CodingHonoring([]schema.RefEdge{{Source: "Auto", Attr: "UsedBy", Target: "Employee"}})
	if err != nil {
		t.Fatal(err)
	}
	ixUsed, err := newGroup(st, Spec{Name: "used", Root: "Auto", Refs: []string{"UsedBy"}, Attr: "Age", Coding: alt})
	if err != nil {
		t.Fatalf("alternate coding index: %v", err)
	}
	ms, _, err := ixUsed.Execute(Query{Value: Exact(30)}, Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Path[1].OID != a {
		t.Fatalf("alternate-coding query = %+v", ms)
	}
}

func TestQueryValidation(t *testing.T) {
	f := newFixture(t)
	ix := f.colorIndex(t)
	if _, _, err := ix.Execute(Query{Value: Exact("Red"), Positions: []Position{Any, Any}}, Parallel, nil); err == nil {
		t.Error("too many positions accepted")
	}
	if _, _, err := ix.Execute(Query{Value: Exact("Red"), Distinct: 5}, Parallel, nil); err == nil {
		t.Error("Distinct out of range accepted")
	}
	if _, _, err := ix.Execute(Query{Value: Exact("Red"), Positions: []Position{On("Employee")}}, Parallel, nil); err == nil {
		t.Error("class outside the position hierarchy accepted")
	}
	if _, _, err := ix.Execute(Query{Value: Exact("Red"), Positions: []Position{On("Ghost")}}, Parallel, nil); err == nil {
		t.Error("unknown class accepted")
	}
	if _, _, err := ix.Execute(Query{Value: Exact(42)}, Parallel, nil); err == nil {
		t.Error("type-mismatched value accepted")
	}
	if _, _, err := ix.Execute(Query{Value: Exact("Red")}, Algorithm(9), nil); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestStats(t *testing.T) {
	f := newFixture(t)
	ix := f.colorIndex(t)
	tr := pager.NewTracker()
	_, stats, err := ix.Execute(Query{Value: Exact("Red")}, Parallel, &ExecContext{Tracker: tr})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesRead == 0 || stats.PagesRead != tr.Reads() {
		t.Fatalf("stats.PagesRead = %d, tracker %d", stats.PagesRead, tr.Reads())
	}
	if stats.Matches != 2 || stats.EntriesScanned < 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Algorithm != Parallel {
		t.Fatalf("alg = %v", stats.Algorithm)
	}
	if Parallel.String() != "parallel" || Forward.String() != "forward" || Algorithm(9).String() == "" {
		t.Error("Algorithm.String broken")
	}
}

func TestEntriesForOffPathObject(t *testing.T) {
	f := newFixture(t)
	ix := f.colorIndex(t)
	keys, err := ix.EntriesFor(f.e1) // employees are not on the color path
	if err != nil || keys != nil {
		t.Fatalf("EntriesFor(off-path) = %v, %v", keys, err)
	}
	if _, err := ix.EntriesFor(9999); err == nil {
		t.Error("EntriesFor of missing object succeeded")
	}
}

// TestDanglingPathsProduceNoEntries: objects without the attribute or with
// broken chains contribute nothing.
func TestDanglingPathsProduceNoEntries(t *testing.T) {
	f := newFixture(t)
	// A vehicle without a manufacturer has no age-path entries.
	v8, err := f.st.Insert("Vehicle", store.Attrs{"Name": "Orphan", "Color": "Red"})
	if err != nil {
		t.Fatal(err)
	}
	ix := f.ageIndex(t)
	keys, err := ix.EntriesFor(v8)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("orphan vehicle has %d age entries", len(keys))
	}
	// But it does appear in the color index.
	color := f.colorIndex(t)
	keys, err = color.EntriesFor(v8)
	if err != nil || len(keys) != 1 {
		t.Fatalf("orphan color entries = %d, %v", len(keys), err)
	}
	// An employee without an Age contributes no entries anywhere.
	e5, _ := f.st.Insert("Employee", store.Attrs{})
	keys, err = ix.EntriesFor(e5)
	if err != nil || len(keys) != 0 {
		t.Fatalf("ageless employee entries = %d, %v", len(keys), err)
	}
}

// TestBuildNonEmptyFails guards double builds.
func TestBuildNonEmptyFails(t *testing.T) {
	f := newFixture(t)
	ix := f.colorIndex(t)
	if err := ix.build(); err == nil {
		t.Error("second build succeeded")
	}
}

// TestDistinctSkipEfficiency: the paper's query-4 point — with Distinct the
// parallel algorithm skips the vehicle clusters and touches fewer entries.
func TestDistinctSkipEfficiency(t *testing.T) {
	f := newFixture(t)
	// Inflate Fiat's fleet so the cluster is worth skipping.
	for i := 0; i < 500; i++ {
		v, err := f.st.Insert("Automobile", store.Attrs{
			"Name": fmt.Sprintf("Model%d", i), "Color": "Grey", "ManufacturedBy": f.c2})
		if err != nil {
			t.Fatal(err)
		}
		_ = v
	}
	ix := f.ageIndex(t)
	_, full, err := ix.Execute(Query{Value: Exact(50)}, Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	ms, dist, err := ix.Execute(Query{Value: Exact(50), Distinct: 2}, Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("distinct companies = %d", len(ms))
	}
	if dist.EntriesScanned >= full.EntriesScanned/10 {
		t.Fatalf("distinct scan inspected %d entries vs %d full; skip ineffective",
			dist.EntriesScanned, full.EntriesScanned)
	}
}

func TestExplain(t *testing.T) {
	f := newFixture(t)
	ix := f.ageIndex(t)
	out, err := ix.Prototype().Explain(Query{
		Value:     Exact(50),
		Positions: []Position{Any, On("AutoCompany"), On("Automobile")},
		Distinct:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"search intervals", "C2A*", "C5A*", "distinct prefixes of 2", "Vehicle/Company/Employee"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
	// Range plans render infinities.
	out, err = ix.Prototype().Explain(Query{Value: Range(nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "-inf") || !strings.Contains(out, "+inf") {
		t.Errorf("open range not rendered:\n%s", out)
	}
	// Wide value lists are truncated in the rendering.
	out, err = ix.Prototype().Explain(Query{Value: Uint64Range(1, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "more") {
		t.Errorf("interval list not truncated:\n%s", out)
	}
	// Compile errors propagate.
	if _, err := ix.Prototype().Explain(Query{Value: Exact("wrong type")}); err == nil {
		t.Error("Explain of invalid query succeeded")
	}
}
