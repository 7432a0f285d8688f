package querylang

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/pager"
	"repro/internal/schema"
	"repro/internal/store"
)

// fixtures: the paper's Example 1 database with one-shard color and age
// indexes.
type fixture struct {
	st       *store.Store
	color    *core.Sharded
	age      *core.Sharded
	e1       store.OID
	c2       store.OID
	vehicles map[string]store.OID
}

var (
	colorSpec = core.Spec{Name: "color", Root: "Vehicle", Attr: "Color"}
	ageSpec   = core.Spec{Name: "age", Root: "Vehicle", Refs: []string{"ManufacturedBy", "President"}, Attr: "Age"}
)

// group builds an in-memory group of spec over st with up to n shards.
func group(t testing.TB, st *store.Store, spec core.Spec, n int) *core.Sharded {
	t.Helper()
	codes, err := core.ShardCodes(st, spec)
	if err != nil {
		t.Fatal(err)
	}
	smap := core.NewShardMap(codes, n)
	files := make([]pager.File, smap.Shards())
	for i := range files {
		files[i] = pager.NewMemFile(0)
	}
	sh, err := core.NewSharded(st, spec, smap, files, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func newFixture(t testing.TB) *fixture {
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
	must(s.AddClass("Truck", "Vehicle"))
	must(s.AddClass("CompactAutomobile", "Automobile"))
	if _, err := s.AssignCodes(); err != nil {
		t.Fatal(err)
	}
	st := store.New(s)
	f := &fixture{st: st, vehicles: map[string]store.OID{}}
	ins := func(class string, attrs store.Attrs) store.OID {
		t.Helper()
		oid, err := st.Insert(class, attrs)
		if err != nil {
			t.Fatal(err)
		}
		return oid
	}
	f.e1 = ins("Employee", store.Attrs{"Age": 50})
	f.c2 = ins("Company", store.Attrs{"Name": "Fiat", "President": f.e1})
	for _, v := range []struct {
		name, class, color string
	}{
		{"tipo", "Automobile", "White"},
		{"panda", "Automobile", "Red"},
		{"r5", "CompactAutomobile", "Red"},
		{"fh16", "Truck", "Blue"},
		{"legacy", "Vehicle", "Red"},
	} {
		f.vehicles[v.name] = ins(v.class, store.Attrs{"Color": v.color, "ManufacturedBy": f.c2})
	}
	f.color = group(t, st, colorSpec, 1)
	f.age = group(t, st, ageSpec, 1)
	return f
}

func runColor(t *testing.T, f *fixture, q string) []core.Match {
	t.Helper()
	parsed, err := Parse(f.color.Prototype(), q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	ms, _, err := f.color.Execute(parsed, core.Parallel, nil)
	if err != nil {
		t.Fatalf("Execute(%q): %v", q, err)
	}
	return ms
}

func TestExactByName(t *testing.T) {
	f := newFixture(t)
	ms := runColor(t, f, `(Color=Red, Automobile*)`)
	if len(ms) != 2 { // panda, r5
		t.Fatalf("matches = %d", len(ms))
	}
}

func TestExactByCompactCode(t *testing.T) {
	f := newFixture(t)
	autoCode := f.color.Prototype().Coding().MustCode("Automobile").Compact()
	byName := runColor(t, f, `(Color=Red, Automobile*)`)
	byCode := runColor(t, f, `(Color=Red, `+autoCode+`*)`)
	if len(byName) != len(byCode) {
		t.Fatalf("name/code divergence: %d vs %d", len(byName), len(byCode))
	}
	// Exact class (no star).
	exact := runColor(t, f, `(Color=Red, `+autoCode+`)`)
	if len(exact) != 1 { // panda only
		t.Fatalf("exact class matches = %d", len(exact))
	}
}

func TestUnionPosition(t *testing.T) {
	f := newFixture(t)
	autoCode := f.color.Prototype().Coding().MustCode("Automobile").Compact()
	ms := runColor(t, f, `(Color={Red,Blue}, [`+autoCode+`*, Truck])`)
	if len(ms) != 3 { // panda, r5 (red autos), fh16 (blue truck)
		t.Fatalf("matches = %d: %v", len(ms), ms)
	}
}

func TestRanges(t *testing.T) {
	f := newFixture(t)
	// Blue..Red covers Blue and Red but not White.
	ms := runColor(t, f, `(Color=[Blue-Red])`)
	if len(ms) != 4 {
		t.Fatalf("range matches = %d", len(ms))
	}
	// Open ends.
	ms = runColor(t, f, `(Color=[Red-])`)
	if len(ms) != 4 { // 3 red + 1 white
		t.Fatalf("open range matches = %d", len(ms))
	}
	ms = runColor(t, f, `(Color=[-Blue])`)
	if len(ms) != 1 {
		t.Fatalf("open-low range matches = %d", len(ms))
	}
	ms = runColor(t, f, `(Color=*)`)
	if len(ms) != 5 {
		t.Fatalf("wildcard value matches = %d", len(ms))
	}
}

func TestPathQueryWithOIDsAndDistinct(t *testing.T) {
	f := newFixture(t)
	q := `(Age=50, Employee, Company$` + itoa(f.c2) + `, Vehicle*)`
	parsed, err := Parse(f.age.Prototype(), q)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := f.age.Execute(parsed, core.Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 5 {
		t.Fatalf("path matches = %d", len(ms))
	}
	// Distinct companies.
	q = `(Age=50, ?, ?) ; distinct 2`
	parsed, err = Parse(f.age.Prototype(), q)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Distinct != 2 {
		t.Fatalf("Distinct = %d", parsed.Distinct)
	}
	ms, _, err = f.age.Execute(parsed, core.Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Path[1].OID != f.c2 {
		t.Fatalf("distinct companies = %v", ms)
	}
	// OID sets.
	q = `(Age=50, ?, Company${` + itoa(f.c2) + `,999}, ?)`
	parsed, err = Parse(f.age.Prototype(), q)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err = f.age.Execute(parsed, core.Parallel, nil)
	if err != nil || len(ms) != 5 {
		t.Fatalf("oid-set matches = %d, %v", len(ms), err)
	}
}

func itoa(o store.OID) string {
	return fmtInt(uint64(o))
}

func fmtInt(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestQuotedStrings(t *testing.T) {
	f := newFixture(t)
	vehCode := f.color.Prototype().Coding().MustCode("Vehicle").Compact()
	ms := runColor(t, f, `(Color="Red", `+vehCode+`*)`)
	if len(ms) != 3 {
		t.Fatalf("quoted value matches = %d", len(ms))
	}
}

// invalidColorQueries must fail to parse against the color index.
var invalidColorQueries = []string{
	``,
	`Color=Red`,                         // no parens
	`(Hue=Red)`,                         // wrong attribute
	`(Color=Red`,                        // unterminated
	`(Color=Red, Ghost*)`,               // unknown class
	`(Color=[Red)`,                      // bad range
	`(Color=Red) ; distinct x`,          // bad distinct
	`(Color=Red) ; foo 2`,               // bad keyword
	`(Color=Red) trailing`,              // trailing input
	`(Color=Red, Automobile$x)`,         // bad oid
	`(Color="unterminated)`,             // unterminated string
	`(Color={Red,})`,                    // dangling comma
	`(Color=Red, [Automobile*, Ghost])`, // unknown class in union
	`(Color=Red, Automobile${1,bad})`,   // bad oid in set
}

// invalidAgeQueries must fail to parse against the age index.
var invalidAgeQueries = []string{
	`(Age=old)`,                            // non-numeric value
	`(Age=50, ?, Company{Ghost=1}, ?)`,     // unknown attribute
	`(Age=50, ?, Company{President=1}, ?)`, // ref attribute
	`(Age=50, ?, Company{Name=Fiat, ?)`,    // unterminated
	`(Age=50, Employee{Age=old}, ?, ?)`,    // bad value
}

// validQueries are the queries the tests above parse successfully, against
// the color index or the age index (company c2 is OID 2).
var validQueries = []string{
	`(Color=Red, Automobile*)`,
	`(Color=Red, C3A*)`,
	`(Color=Red, C3A)`,
	`(Color={Red,Blue}, [C3A*, Truck])`,
	`(Color=[Blue-Red])`,
	`(Color=[Red-])`,
	`(Color=[-Blue])`,
	`(Color=*)`,
	`(Color="Red", C3*)`,
	`(Age=50, Employee, Company$2, Vehicle*)`,
	`(Age=50, ?, ?) ; distinct 2`,
	`(Age=50, ?, Company${2,999}, ?)`,
	`(Age={50,60})`,
	`(Age=50, ?, Company{Name=Fiat}, ?)`,
	`(Age=50, ?, Company{Name=Ghost}, ?)`,
	`(Age=[-100], Employee{Age=50}, ?, ?)`,
}

func TestParseErrors(t *testing.T) {
	f := newFixture(t)
	for _, q := range invalidColorQueries {
		if _, err := Parse(f.color.Prototype(), q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestUintValues(t *testing.T) {
	f := newFixture(t)
	parsed, err := Parse(f.age.Prototype(), `(Age={50,60})`)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Value.Values) != 2 || parsed.Value.Values[0].(uint64) != 50 {
		t.Fatalf("values = %v", parsed.Value.Values)
	}
	if _, err := Parse(f.age.Prototype(), invalidAgeQueries[0]); err == nil {
		t.Error("non-numeric age accepted")
	}
}

// TestPositionPredicate covers the paper's query-3 form: a position
// restricted by a select predicate on the class's own attribute.
func TestPositionPredicate(t *testing.T) {
	f := newFixture(t)
	// Vehicles with president age 50, restricted to the company named Fiat.
	parsed, err := Parse(f.age.Prototype(), `(Age=50, ?, Company{Name=Fiat}, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := f.age.Execute(parsed, core.Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 5 {
		t.Fatalf("predicate matches = %d", len(ms))
	}
	for _, m := range ms {
		if m.Path[1].OID != f.c2 {
			t.Fatalf("path = %+v", m.Path)
		}
	}
	// A predicate that matches no object yields no results (not an error).
	parsed, err = Parse(f.age.Prototype(), `(Age=50, ?, Company{Name=Ghost}, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err = f.age.Execute(parsed, core.Parallel, nil)
	if err != nil || len(ms) != 0 {
		t.Fatalf("empty predicate: %d matches, %v", len(ms), err)
	}
	// Numeric predicate on the terminal class.
	parsed, err = Parse(f.age.Prototype(), `(Age=[-100], Employee{Age=50}, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err = f.age.Execute(parsed, core.Parallel, nil)
	if err != nil || len(ms) != 5 {
		t.Fatalf("numeric predicate: %d matches, %v", len(ms), err)
	}
	// Errors.
	for _, bad := range invalidAgeQueries[1:] {
		if _, err := Parse(f.age.Prototype(), bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// TestWhereHelper exercises the programmatic predicate position.
func TestWhereHelper(t *testing.T) {
	f := newFixture(t)
	pos := f.age.Prototype().Where("Company", "Name", func(v any) bool { return v == "Fiat" })
	ms, _, err := f.age.Execute(core.Query{
		Value:     core.Exact(50),
		Positions: []core.Position{core.Any, pos},
	}, core.Parallel, nil)
	if err != nil || len(ms) != 5 {
		t.Fatalf("Where: %d matches, %v", len(ms), err)
	}
	empty := f.age.Prototype().Where("Company", "Name", func(v any) bool { return false })
	ms, _, err = f.age.Execute(core.Query{
		Value:     core.Exact(50),
		Positions: []core.Position{core.Any, empty},
	}, core.Parallel, nil)
	if err != nil || len(ms) != 0 {
		t.Fatalf("empty Where: %d matches, %v", len(ms), err)
	}
}

// FuzzParse parses arbitrary text against the color and age indexes. Parsing
// must never panic, and every query that parses must return identical
// matches from the one-shard index and from a group of up to four shards,
// under both retrieval algorithms.
func FuzzParse(f *testing.F) {
	fx := newFixture(f)
	groups := []struct{ one, sharded *core.Sharded }{
		{fx.color, group(f, fx.st, colorSpec, 4)},
		{fx.age, group(f, fx.st, ageSpec, 4)},
	}
	for _, qs := range [][]string{validQueries, invalidColorQueries, invalidAgeQueries} {
		for _, q := range qs {
			f.Add(q)
		}
	}
	f.Fuzz(func(t *testing.T, input string) {
		for _, g := range groups {
			q, err := Parse(g.one.Prototype(), input)
			if err != nil {
				continue
			}
			for _, alg := range []core.Algorithm{core.Parallel, core.Forward} {
				want, _, werr := g.one.Execute(q, alg, nil)
				got, _, gerr := g.sharded.Execute(q, alg, nil)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%q %v: one shard err %v, %d shards err %v", input, alg, werr, g.sharded.NumShards(), gerr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%q %v: %d shards returned %v, one shard %v", input, alg, g.sharded.NumShards(), got, want)
				}
			}
		}
	})
}
