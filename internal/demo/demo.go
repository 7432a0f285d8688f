// Package demo builds the paper's Example-1 database: the Figure-1 schema
// (vehicles, companies, employees, cities), the class-hierarchy color index,
// and the combined Vehicle/Company/Employee age path index, loaded with the
// example objects. uindexcli serves it as a REPL, uindexd serves it over
// the network, and tests use it as a small fully-featured fixture.
package demo

import (
	"fmt"
	"strings"

	uindex "repro"
)

// Build constructs the Example-1 database with the given engine options and
// returns it together with the object display names keyed by OID.
func Build(opts uindex.Options) (*uindex.Database, map[uindex.OID]string, error) {
	s := uindex.NewSchema()
	add := func(name, super string, attrs ...uindex.Attr) error {
		return s.AddClass(name, super, attrs...)
	}
	steps := []func() error{
		func() error {
			return add("Employee", "", uindex.Attr{Name: "Age", Type: uindex.Uint64})
		},
		func() error {
			return add("Company", "",
				uindex.Attr{Name: "Name", Type: uindex.String},
				uindex.Attr{Name: "President", Ref: "Employee"})
		},
		func() error { return add("City", "", uindex.Attr{Name: "Name", Type: uindex.String}) },
		func() error {
			return add("Division", "",
				uindex.Attr{Name: "Belong", Ref: "Company"},
				uindex.Attr{Name: "LocatedIn", Ref: "City"})
		},
		func() error {
			return add("Vehicle", "",
				uindex.Attr{Name: "Name", Type: uindex.String},
				uindex.Attr{Name: "Color", Type: uindex.String},
				uindex.Attr{Name: "ManufacturedBy", Ref: "Company"})
		},
		func() error { return add("Automobile", "Vehicle") },
		func() error { return add("Truck", "Vehicle") },
		func() error { return add("CompactAutomobile", "Automobile") },
		func() error { return add("AutoCompany", "Company") },
		func() error { return add("TruckCompany", "Company") },
		func() error { return add("JapaneseAutoCompany", "AutoCompany") },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}
	db, err := uindex.NewDatabaseWith(s, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := db.CreateIndex(uindex.IndexSpec{Name: "color", Root: "Vehicle", Attr: "Color"}); err != nil {
		return nil, nil, err
	}
	if err := db.CreateIndex(uindex.IndexSpec{
		Name: "age", Root: "Vehicle", Refs: []string{"ManufacturedBy", "President"}, Attr: "Age"}); err != nil {
		return nil, nil, err
	}

	names := map[uindex.OID]string{}
	ins := func(name, class string, attrs uindex.Attrs) (uindex.OID, error) {
		oid, err := db.Insert(class, attrs)
		if err != nil {
			return 0, err
		}
		names[oid] = name
		return oid, nil
	}
	e1, err := ins("e1", "Employee", uindex.Attrs{"Age": 50})
	if err != nil {
		return nil, nil, err
	}
	e2, _ := ins("e2", "Employee", uindex.Attrs{"Age": 60})
	e3, _ := ins("e3", "Employee", uindex.Attrs{"Age": 45})
	c1, _ := ins("c1/Subaru", "JapaneseAutoCompany", uindex.Attrs{"Name": "Subaru", "President": e3})
	c2, _ := ins("c2/Fiat", "AutoCompany", uindex.Attrs{"Name": "Fiat", "President": e1})
	c3, _ := ins("c3/Renault", "AutoCompany", uindex.Attrs{"Name": "Renault", "President": e2})
	vehicles := []struct {
		name, class, color string
		co                 uindex.OID
	}{
		{"v1/Legacy", "Vehicle", "White", c1},
		{"v2/Tipo", "Automobile", "White", c2},
		{"v3/Panda", "Automobile", "Red", c2},
		{"v4/R5", "CompactAutomobile", "Red", c3},
		{"v5/Justy", "CompactAutomobile", "Blue", c1},
		{"v6/Uno", "CompactAutomobile", "White", c2},
	}
	for _, v := range vehicles {
		if _, err := ins(v.name, v.class, uindex.Attrs{
			"Name": strings.SplitN(v.name, "/", 2)[1], "Color": v.color, "ManufacturedBy": v.co}); err != nil {
			return nil, nil, err
		}
	}
	return db, names, nil
}

// ParseDurability maps the -durability flag values to the engine's modes.
func ParseDurability(s string) (uindex.Durability, error) {
	switch s {
	case "checkpoint":
		return uindex.DurabilityCheckpoint, nil
	case "wal":
		return uindex.DurabilityWAL, nil
	}
	return 0, fmt.Errorf("unknown durability %q (want checkpoint or wal)", s)
}
