// Evolution: the paper's Section 4.3 — schema changes (Figure 4) and REF
// cycles. New classes receive codes without recoding anything; a class can
// be inserted *between* two coded siblings; and a REF cycle (Employee owns
// Vehicles, Vehicles are used by Employees) is broken with an alternate
// per-index coding, the paper's "duplicate names" trick.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/pager"
)

func main() {
	s := uindex.NewSchema()
	check(s.AddClass("Employee", "",
		uindex.Attr{Name: "Age", Type: uindex.Uint64},
		uindex.Attr{Name: "Owns", Ref: "Vehicle", Multi: true}))
	check(s.AddClass("Vehicle", "",
		uindex.Attr{Name: "Mileage", Type: uindex.Uint64},
		uindex.Attr{Name: "UsedBy", Ref: "Employee"}))
	check(s.AddClass("Automobile", "Vehicle"))
	check(s.AddClass("Truck", "Vehicle"))

	db, err := uindex.NewDatabase(s)
	check(err)
	fmt.Println("initial COD relation:")
	printCOD(db)

	// --- Figure 4a: add a class within an existing hierarchy. ---
	check(s.AddClass("Bus", "Vehicle"))
	fmt.Println("\nafter adding Bus under Vehicle (no other code moved):")
	printCOD(db)

	// Insert a class BETWEEN two coded siblings.
	check(s.AddClass("Motorcycle", "Vehicle"))
	check(s.InsertBetween("Motorcycle", "Automobile", "Truck"))
	m := db.Coding().MustCode("Motorcycle")
	a := db.Coding().MustCode("Automobile")
	tr := db.Coding().MustCode("Truck")
	fmt.Printf("\nMotorcycle inserted between Automobile and Truck: %s < %s < %s\n", a, m, tr)

	// --- Figure 4b: a brand-new hierarchy. ---
	check(s.AddClass("Garage", "", uindex.Attr{Name: "City", Type: uindex.String}))
	fmt.Println("\nafter adding the Garage hierarchy:")
	printCOD(db)

	// Data: employees own and use vehicles — a REF cycle.
	e1, err := db.Insert("Employee", uindex.Attrs{"Age": 41})
	check(err)
	v1, err := db.Insert("Automobile", uindex.Attrs{"Mileage": 120, "UsedBy": e1})
	check(err)
	v2, err := db.Insert("Motorcycle", uindex.Attrs{"Mileage": 9, "UsedBy": e1})
	check(err)
	check(db.Set(e1, "Owns", []uindex.OID{v1, v2}))

	// The default coding honors Owns (Vehicle codes sort below Employee),
	// so the Owns path indexes directly.
	check(db.CreateIndex(uindex.IndexSpec{
		Name: "owned-mileage", Root: "Employee", Refs: []string{"Owns"}, Attr: "Mileage"}))
	ms, _, err := db.Query(context.Background(), "owned-mileage", uindex.Query{Value: uindex.Range(uint64(100), nil)})
	check(err)
	fmt.Printf("\nemployees owning a vehicle with mileage >= 100: %d match(es)\n", len(ms))

	// The UsedBy path conflicts with the default coding — the facade
	// rejects it with a pointer to the fix...
	err = db.CreateIndex(uindex.IndexSpec{
		Name: "user-age", Root: "Vehicle", Refs: []string{"UsedBy"}, Attr: "Age"})
	fmt.Printf("\nUsedBy index over the default coding: %v\n", err)

	// ... an alternate coding honoring the UsedBy edge (Section 4.3).
	alt, err := s.CodingHonoring([]uindex.RefEdge{{Source: "Vehicle", Attr: "UsedBy", Target: "Employee"}})
	check(err)
	fmt.Println("\nalternate coding for the UsedBy index (Employee now sorts first):")
	for _, row := range alt.Table() {
		fmt.Printf("  %-12s COD %s\n", row.Class, row.Code.Compact())
	}
	// A hand-built index's page file goes through a buffer pool here —
	// the pool implements pager.File, so the index code does not change,
	// and closing it (checked!) flushes the cached pages back.
	pool, err := bufferpool.New(pager.NewMemFile(0), bufferpool.Config{Pages: 16})
	check(err)
	ix, err := core.NewSharded(db.Store(), core.Spec{
		Name: "user-age", Root: "Vehicle", Refs: []string{"UsedBy"}, Attr: "Age", Coding: alt},
		nil, []pager.File{pool}, nil)
	check(err)
	ms2, _, err := ix.Execute(uindex.Query{Value: uindex.Exact(41)}, uindex.Parallel, nil)
	check(err)
	fmt.Printf("\nvehicles used by a 41-year-old employee (alternate-coding index): %d match(es)\n", len(ms2))
	for _, m := range ms2 {
		fmt.Printf("  employee %d -> vehicle %d (%s)\n", m.Path[0].OID, m.Path[1].OID, m.Path[1].Code.Compact())
	}
	// Every committed node page is already in the pool: the tree writes
	// pages at commit, and its node cache only holds decoded copies.
	check(pool.Close())
	check(db.Close())
}

func printCOD(db *uindex.Database) {
	for _, row := range db.CODTable() {
		fmt.Println(" ", row)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
