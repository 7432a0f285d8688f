// Vehicles: the paper's Example-1 database and every class-hierarchy query
// of Section 3.3, comparing the parallel retrieval algorithm (Algorithm 1)
// against naive forward scanning on a larger randomized fleet.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	s := uindex.NewSchema()
	check(s.AddClass("Employee", "", uindex.Attr{Name: "Age", Type: uindex.Uint64}))
	check(s.AddClass("Company", "",
		uindex.Attr{Name: "Name", Type: uindex.String},
		uindex.Attr{Name: "President", Ref: "Employee"}))
	check(s.AddClass("Vehicle", "",
		uindex.Attr{Name: "Name", Type: uindex.String},
		uindex.Attr{Name: "Color", Type: uindex.String},
		uindex.Attr{Name: "ManufacturedBy", Ref: "Company"}))
	check(s.AddClass("Automobile", "Vehicle"))
	check(s.AddClass("Truck", "Vehicle"))
	check(s.AddClass("CompactAutomobile", "Automobile"))

	db, err := uindex.NewDatabase(s)
	check(err)
	check(db.CreateIndex(uindex.IndexSpec{Name: "color", Root: "Vehicle", Attr: "Color"}))

	// A randomized fleet big enough for page counts to mean something.
	rng := rand.New(rand.NewSource(7))
	e, err := db.Insert("Employee", uindex.Attrs{"Age": 52})
	check(err)
	co, err := db.Insert("Company", uindex.Attrs{"Name": "Fiat", "President": e})
	check(err)
	classes := []string{"Vehicle", "Automobile", "Truck", "CompactAutomobile"}
	colors := []string{"Black", "Blue", "Green", "Red", "White", "Yellow"}
	for i := 0; i < 20000; i++ {
		_, err := db.Insert(classes[rng.Intn(len(classes))], uindex.Attrs{
			"Name":           fmt.Sprintf("V%05d", i),
			"Color":          colors[rng.Intn(len(colors))],
			"ManufacturedBy": co,
		})
		check(err)
	}

	// The Section-3.3 class-hierarchy queries, in the paper's notation.
	queries := []struct{ label, q string }{
		{"q1: all red vehicles", `(Color=Red, Vehicle*)`},
		{"q2: red automobiles (with subclasses)", `(Color=Red, Automobile*)`},
		{"q3: red automobiles and their subclasses only", `(Color=Red, CompactAutomobile*)`},
		{"q4: red vehicles that are NOT compacts", `(Color=Red, [Vehicle, Automobile, Truck*])`},
		{"q5: red automobiles or trucks", `(Color=Red, [Automobile*, Truck*])`},
		{"range: blue..green trucks", `(Color=[Blue-Green], Truck*)`},
		{"multi-value: red or blue compacts", `(Color={Red,Blue}, CompactAutomobile*)`},
	}
	ctx := context.Background()
	fmt.Printf("%-48s %8s %9s %8s\n", "query", "matches", "parallel", "forward")
	for _, tc := range queries {
		q := mustParse(db, tc.q)
		ms, sp, err := db.Query(ctx, "color", q, uindex.WithAlgorithm(uindex.Parallel))
		check(err)
		_, sf, err := db.Query(ctx, "color", q, uindex.WithAlgorithm(uindex.Forward))
		check(err)
		fmt.Printf("%-48s %8d %9d %8d\n", tc.label, len(ms), sp.PagesRead, sf.PagesRead)
	}
	fmt.Println("\nparallel = the paper's Algorithm 1; forward = naive scan of each value cluster")
	check(db.Close())
}

func mustParse(db *uindex.Database, q string) uindex.Query {
	ix, _ := db.Index("color")
	parsed, err := uindex.ParseQuery(ix, q)
	if err != nil {
		log.Fatal(err)
	}
	return parsed
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
