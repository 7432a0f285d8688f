package uindex

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// stressDB builds a database large enough that queries span many index
// pages: a vehicle hierarchy over companies and presidents, with a
// class-hierarchy index (color) and a two-ref path index (age).
func stressDB(t testing.TB, poolPages int) *Database {
	t.Helper()
	return stressDBWith(t, Options{PoolPages: poolPages})
}

// stressDBWith is stressDB with full Options control (shard count, disk
// directory, durability) — the shard tests build the same deterministic
// database under every layout.
func stressDBWith(t testing.TB, opts Options) *Database {
	t.Helper()
	s := NewSchema()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddClass("Employee", "", Attr{Name: "Age", Type: Uint64}))
	must(s.AddClass("Company", "",
		Attr{Name: "Name", Type: String},
		Attr{Name: "President", Ref: "Employee"}))
	must(s.AddClass("Vehicle", "",
		Attr{Name: "Color", Type: String},
		Attr{Name: "ManufacturedBy", Ref: "Company"}))
	must(s.AddClass("Automobile", "Vehicle"))
	must(s.AddClass("Truck", "Vehicle"))
	must(s.AddClass("CompactAutomobile", "Automobile"))

	db, err := NewDatabaseWith(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1996))
	colors := []string{"Red", "Blue", "White", "Green", "Black", "Silver", "Yellow"}
	classes := []string{"Vehicle", "Automobile", "Truck", "CompactAutomobile"}

	var employees, companies []OID
	for i := 0; i < 60; i++ {
		oid, err := db.Insert("Employee", Attrs{"Age": uint64(30 + rng.Intn(40))})
		must(err)
		employees = append(employees, oid)
	}
	for i := 0; i < 30; i++ {
		oid, err := db.Insert("Company", Attrs{
			"Name":      fmt.Sprintf("Co-%02d", i),
			"President": employees[rng.Intn(len(employees))],
		})
		must(err)
		companies = append(companies, oid)
	}
	must(db.CreateIndex(IndexSpec{Name: "color", Root: "Vehicle", Attr: "Color"}))
	must(db.CreateIndex(IndexSpec{
		Name: "age", Root: "Vehicle", Refs: []string{"ManufacturedBy", "President"}, Attr: "Age"}))
	for i := 0; i < 600; i++ {
		_, err := db.Insert(classes[rng.Intn(len(classes))], Attrs{
			"Color":          colors[rng.Intn(len(colors))],
			"ManufacturedBy": companies[rng.Intn(len(companies))],
		})
		must(err)
	}
	return db
}

// stressJob is one query of the stress workload.
type stressJob struct {
	Index     string
	Query     Query
	Algorithm Algorithm
}

// stressQueries is the mixed exact/range/subtree/path workload every
// concurrency test in this package runs.
func stressQueries() []stressJob {
	return []stressJob{
		{Index: "color", Query: Query{Value: Exact("Red"), Positions: []Position{On("Vehicle")}}},
		{Index: "color", Query: Query{Value: Exact("Blue"), Positions: []Position{OnExact("Truck")}}},
		{Index: "color", Query: Query{Value: Range("Black", "Green"), Positions: []Position{On("Automobile")}}},
		{Index: "color", Query: Query{Value: OneOf("White", "Silver"), Positions: []Position{On("CompactAutomobile")}}},
		{Index: "color", Query: Query{Value: Exact("Green"), Positions: []Position{On("Vehicle")}}, Algorithm: Forward},
		{Index: "age", Query: Query{Value: Exact(uint64(45))}},
		// Positions are terminal-first: restrict the vehicle class at
		// position 2 of the Employee<-Company<-Vehicle path.
		{Index: "age", Query: Query{Value: Range(uint64(50), uint64(60)), Positions: []Position{Any, Any, On("Automobile")}}},
		{Index: "age", Query: Query{Value: Range(uint64(35), uint64(40))}, Algorithm: Forward},
		{Index: "age", Query: Query{Value: Exact(uint64(55)), Distinct: 2}},
	}
}

// TestConcurrentQueries runs the mixed workload from many goroutines (with
// and without a buffer pool) and checks every result against the
// sequential baseline. This is the engine-level -race regression test for
// the goroutine-safe read path.
func TestConcurrentQueries(t *testing.T) {
	for _, poolPages := range []int{0, 24} {
		t.Run(fmt.Sprintf("pool=%d", poolPages), func(t *testing.T) {
			db := stressDB(t, poolPages)
			defer db.Close()
			jobs := stressQueries()

			want := make([][]Match, len(jobs))
			for i, j := range jobs {
				ms, _, err := db.Query(context.Background(), j.Index, j.Query, WithAlgorithm(j.Algorithm))
				if err != nil {
					t.Fatalf("baseline job %d: %v", i, err)
				}
				want[i] = ms
			}

			const goroutines = 10
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for rep := 0; rep < 5; rep++ {
						i := (g + rep) % len(jobs)
						j := jobs[i]
						ms, stats, err := db.Query(context.Background(), j.Index, j.Query, WithAlgorithm(j.Algorithm))
						if err != nil {
							t.Errorf("g%d job %d: %v", g, i, err)
							return
						}
						if len(ms) != len(want[i]) {
							t.Errorf("g%d job %d: %d matches, want %d", g, i, len(ms), len(want[i]))
							return
						}
						if stats.PagesRead == 0 {
							t.Errorf("g%d job %d: no pages read", g, i)
							return
						}
					}
				}(g)
			}
			// Textual queries run concurrently with programmatic ones.
			cx, _ := db.Index("color")
			parsed, err := ParseQuery(cx, "(Color=Red, Vehicle*)")
			if err != nil {
				t.Fatalf("ParseQuery: %v", err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 10; rep++ {
					if _, _, err := db.Query(context.Background(), "color", parsed); err != nil {
						t.Errorf("parsed query: %v", err)
						return
					}
				}
			}()
			wg.Wait()
		})
	}
}

// TestParallelTrackerInvariance is the Table-1/Figs-5-8 accounting
// acceptance criterion at the engine level: the distinct-page total of the
// workload run sequentially under one shared tracker equals the total from
// running it concurrently with per-goroutine trackers merged afterwards —
// unsharded and across four shards, where each shard file is deduplicated
// on its own.
func TestParallelTrackerInvariance(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := stressDBWith(t, Options{Shards: shards})
			defer db.Close()
			jobs := stressQueries()

			shared := NewTracker()
			for _, j := range jobs {
				if _, _, err := db.Query(context.Background(), j.Index, j.Query, WithAlgorithm(j.Algorithm), WithTracker(shared)); err != nil {
					t.Fatal(err)
				}
			}

			per := make([]*Tracker, len(jobs))
			var wg sync.WaitGroup
			for i, j := range jobs {
				per[i] = NewTracker()
				wg.Add(1)
				go func(i int, j stressJob) {
					defer wg.Done()
					if _, _, err := db.Query(context.Background(), j.Index, j.Query, WithAlgorithm(j.Algorithm), WithTracker(per[i])); err != nil {
						t.Error(err)
					}
				}(i, j)
			}
			wg.Wait()

			merged := NewTracker()
			for _, tr := range per {
				merged.Merge(tr)
			}
			if merged.Reads() != shared.Reads() {
				t.Fatalf("merged per-goroutine pages %d != sequential shared pages %d",
					merged.Reads(), shared.Reads())
			}

			// The buffered model on one index: a tracker shared by
			// successive queries accumulates their distinct pages, and
			// every query reports that cumulative count.
			tr := NewTracker()
			prev := 0
			for _, j := range jobs {
				if j.Index != "color" {
					continue
				}
				_, st, err := db.Query(context.Background(), j.Index, j.Query, WithAlgorithm(j.Algorithm), WithTracker(tr))
				if err != nil {
					t.Fatal(err)
				}
				if st.PagesRead < prev {
					t.Errorf("PagesRead fell from %d to %d under a shared tracker", prev, st.PagesRead)
				}
				if st.PagesRead != tr.Reads() {
					t.Errorf("PagesRead %d, shared tracker %d", st.PagesRead, tr.Reads())
				}
				prev = st.PagesRead
			}
			if tr.Reads() == 0 {
				t.Error("shared tracker counted no pages")
			}
		})
	}
}

// TestConcurrentReadersWithWriter interleaves the read workload with
// mutations through the facade. Results are nondeterministic by design; the
// test asserts race-freedom (under -race) and that every operation either
// succeeds or fails cleanly.
func TestConcurrentReadersWithWriter(t *testing.T) {
	db := stressDB(t, 24)
	defer db.Close()
	jobs := stressQueries()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; ; rep++ {
				select {
				case <-stop:
					return
				default:
				}
				j := jobs[(g+rep)%len(jobs)]
				if _, _, err := db.Query(context.Background(), j.Index, j.Query, WithAlgorithm(j.Algorithm)); err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		companies := []OID{}
		for i := 0; i < 40; i++ {
			oid, err := db.Insert("Company", Attrs{"Name": fmt.Sprintf("W-%d", i)})
			if err != nil {
				t.Errorf("writer insert company: %v", err)
				return
			}
			companies = append(companies, oid)
			void, err := db.Insert("Automobile", Attrs{"Color": "Teal", "ManufacturedBy": oid})
			if err != nil {
				t.Errorf("writer insert vehicle: %v", err)
				return
			}
			if err := db.Set(void, "Color", "Maroon"); err != nil {
				t.Errorf("writer set: %v", err)
				return
			}
			if i%4 == 3 {
				if err := db.Delete(void); err != nil {
					t.Errorf("writer delete: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestGetSetRace: an object returned by Get is a published value that a
// concurrent Set of the same object never modifies in place (run under
// -race).
func TestGetSetRace(t *testing.T) {
	db, err := NewDatabaseWith(vehicleSchema(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	oid := insertVehicles(t, db, []string{"Red"})[0]
	const n = 20000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		colors := []string{"White", "Red"}
		for i := 0; i < n; i++ {
			if err := db.Set(oid, "Color", colors[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			o, ok := db.Get(oid)
			if !ok {
				t.Error("object vanished")
				return
			}
			if v, ok := o.Attr("Color"); !ok || (v != "Red" && v != "White") {
				t.Errorf("Color = %v, %v", v, ok)
				return
			}
		}
	}()
	wg.Wait()
}
