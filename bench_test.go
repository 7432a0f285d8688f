package uindex

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, plus the ablation benches DESIGN.md calls out.
// The full paper-scale sweeps (150,000 objects, 100 repetitions) live in
// cmd/uindexbench; the benchmarks here exercise the same code paths at a
// size that keeps `go test -bench=.` responsive.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cgtree"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/nix"
	"repro/internal/pager"
	"repro/internal/store"
	"repro/internal/workload"
)

// ---- shared fixtures -------------------------------------------------

var (
	largeOnce sync.Once
	largeDBs  map[int]*workload.LargeDB // by distinct-key count (0 = unique)
	largeErr  error

	table1Once sync.Once
	table1DB   *workload.Figure1DB
	table1Col  *core.Sharded
	table1Age  *core.Sharded
	table1Err  error
)

const benchObjects = 30000

func getLargeDB(b *testing.B, keys int) *workload.LargeDB {
	b.Helper()
	largeOnce.Do(func() {
		largeDBs = map[int]*workload.LargeDB{}
		for _, k := range []int{0, 100, 1000} {
			db, err := workload.NewLargeDB(workload.LargeConfig{
				Objects: benchObjects, Sets: 40, Keys: k, Seed: 1996})
			if err != nil {
				largeErr = err
				return
			}
			largeDBs[k] = db
		}
	})
	if largeErr != nil {
		b.Fatal(largeErr)
	}
	return largeDBs[keys]
}

// memGroup builds a one-shard in-memory index of spec over st, with the
// paper's 1024-byte pages.
func memGroup(st *store.Store, spec core.Spec) (*core.Sharded, error) {
	return core.NewSharded(st, spec, nil, []pager.File{pager.NewMemFile(1024)}, nil)
}

func getTable1(b *testing.B) (*workload.Figure1DB, *core.Sharded, *core.Sharded) {
	b.Helper()
	table1Once.Do(func() {
		table1DB, table1Err = workload.NewFigure1DB(42)
		if table1Err != nil {
			return
		}
		table1Col, table1Err = memGroup(table1DB.Store, core.Spec{
			Name: "color", Root: "Vehicle", Attr: "Color", MaxEntries: 10})
		if table1Err != nil {
			return
		}
		table1Age, table1Err = memGroup(table1DB.Store, core.Spec{
			Name: "age", Root: "Vehicle", Refs: []string{"ManufacturedBy", "President"},
			Attr: "Age", MaxEntries: 10})
	})
	if table1Err != nil {
		b.Fatal(table1Err)
	}
	return table1DB, table1Col, table1Age
}

func setPosition(db *workload.LargeDB, sets []int) core.Position {
	pos := core.Position{}
	for _, s := range sets {
		pos.Alts = append(pos.Alts, core.ClassPattern{Class: db.Sets[s]})
	}
	return pos
}

// ---- read path -------------------------------------------------------

var (
	queryBenchMu  sync.Mutex
	queryBenchDBs = map[int]*Database{} // by Options.Shards
)

// benchQueryDB builds (once per shard count) the vehicle database the
// read-path benchmarks query: a color class-hierarchy index and a two-ref
// age path index over a few thousand objects.
func benchQueryDB(b *testing.B, shards int) *Database {
	b.Helper()
	queryBenchMu.Lock()
	defer queryBenchMu.Unlock()
	if db, ok := queryBenchDBs[shards]; ok {
		return db
	}
	s := NewSchema()
	steps := []func() error{
		func() error { return s.AddClass("Employee", "", Attr{Name: "Age", Type: Uint64}) },
		func() error {
			return s.AddClass("Company", "", Attr{Name: "Name", Type: String}, Attr{Name: "President", Ref: "Employee"})
		},
		func() error {
			return s.AddClass("Vehicle", "", Attr{Name: "Color", Type: String}, Attr{Name: "ManufacturedBy", Ref: "Company"})
		},
		func() error { return s.AddClass("Automobile", "Vehicle") },
		func() error { return s.AddClass("Truck", "Vehicle") },
		func() error { return s.AddClass("CompactAutomobile", "Automobile") },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	db, err := NewDatabaseWith(s, Options{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1996))
	colors := []string{"Red", "Blue", "White", "Green", "Black", "Silver", "Yellow"}
	classes := []string{"Vehicle", "Automobile", "Truck", "CompactAutomobile"}
	var employees, companies []OID
	for i := 0; i < 300; i++ {
		oid, err := db.Insert("Employee", Attrs{"Age": uint64(30 + rng.Intn(40))})
		if err != nil {
			b.Fatal(err)
		}
		employees = append(employees, oid)
	}
	for i := 0; i < 150; i++ {
		oid, err := db.Insert("Company", Attrs{
			"Name": fmt.Sprintf("Co-%04d", i), "President": employees[rng.Intn(len(employees))]})
		if err != nil {
			b.Fatal(err)
		}
		companies = append(companies, oid)
	}
	if err := db.CreateIndex(IndexSpec{Name: "color", Root: "Vehicle", Attr: "Color"}); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateIndex(IndexSpec{
		Name: "age", Root: "Vehicle", Refs: []string{"ManufacturedBy", "President"}, Attr: "Age"}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if _, err := db.Insert(classes[rng.Intn(len(classes))], Attrs{
			"Color":          colors[rng.Intn(len(colors))],
			"ManufacturedBy": companies[rng.Intn(len(companies))],
		}); err != nil {
			b.Fatal(err)
		}
	}
	queryBenchDBs[shards] = db
	return db
}

// benchQuery runs one facade query per op on one shard and, when shards > 1,
// on that many shards — where the color index's shard scans run
// concurrently and their results are merged.
func benchQuery(b *testing.B, index string, q Query, shards int) {
	b.Helper()
	counts := []int{1}
	if shards > 1 {
		counts = append(counts, shards)
	}
	for _, n := range counts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			db := benchQueryDB(b, n)
			ctx := context.Background()
			// Warm up: steady state is the repeated-query regime.
			if _, _, err := db.Query(ctx, index, q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.Query(ctx, index, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryExact is the repeated exact-match probe of the acceptance
// criterion: exact value on an exact class.
func BenchmarkQueryExact(b *testing.B) {
	benchQuery(b, "color", Query{
		Value:     Exact("Red"),
		Positions: []Position{OnExact("Automobile")},
	}, 1)
}

// BenchmarkQueryRange scans a value range over the whole hierarchy; its
// shards=4 run merges the four shards' results.
func BenchmarkQueryRange(b *testing.B) {
	benchQuery(b, "color", Query{
		Value:     Range("Black", "Red"),
		Positions: []Position{On("Vehicle")},
	}, 4)
}

// BenchmarkQuerySubtree probes the path index restricted to a class
// subtree at the path's end.
func BenchmarkQuerySubtree(b *testing.B) {
	benchQuery(b, "age", Query{
		Value:     Exact(uint64(45)),
		Positions: []Position{Any, Any, On("Automobile")},
	}, 1)
}

// BenchmarkQueryParscan is a dispersed multi-interval descent — the
// paper's Algorithm 1 showcase (several values × several class subtrees
// in one tree pass); its shards=4 run scans two of four shards and merges
// them.
func BenchmarkQueryParscan(b *testing.B) {
	benchQuery(b, "color", Query{
		Value:     OneOf("Red", "Blue", "Green"),
		Positions: []Position{OneOfClasses("CompactAutomobile", "Truck")},
	}, 4)
}

// ---- Table 1 ---------------------------------------------------------

// BenchmarkTable1 regenerates the Table-1 query mix: class-hierarchy
// simple and range queries on the 12,000-record Figure-1 database, under
// both retrieval algorithms.
func BenchmarkTable1(b *testing.B) {
	_, col, age := getTable1(b)
	queries := []struct {
		name string
		ix   *core.Sharded
		q    core.Query
	}{
		{"q1a-red-buses", col, core.Query{Value: core.Exact("Red"), Positions: []core.Position{core.On("Bus")}}},
		{"q2a-red-passenger-buses", col, core.Query{Value: core.Exact("Red"), Positions: []core.Position{core.On("PassengerBus")}}},
		{"q3c-3color-automobiles", col, core.Query{Value: core.OneOf("Red", "Blue", "Green"), Positions: []core.Position{core.On("Automobile")}}},
		{"q4a-dispersed-classes", col, core.Query{Value: core.Exact("Red"), Positions: []core.Position{core.OneOfClasses("CompactAutomobile", "ServiceAuto")}}},
		{"q5a-distinct-companies", age, core.Query{Value: core.Exact(50), Distinct: 2}},
		{"q6a-combined", age, core.Query{Value: core.Range(51, nil), Positions: []core.Position{core.Any, core.On("AutoCompany"), core.On("Automobile")}}},
	}
	for _, alg := range []core.Algorithm{core.Parallel, core.Forward} {
		for _, tc := range queries {
			b.Run(fmt.Sprintf("%s/%s", alg, tc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := tc.ix.Execute(tc.q, alg, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- Figures 5-8 -----------------------------------------------------

// benchPoint runs one (structure, keys, #sets, range-fraction) point.
func benchPoint(b *testing.B, keys, nSets int, frac float64) {
	db := getLargeDB(b, keys)
	rng := rand.New(rand.NewSource(7))
	domain := db.KeyDomain()
	width := max(1, int(frac*float64(domain)))
	b.Run("U-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo := uint64(rng.Intn(domain - width + 1))
			sets := workload.QueriedSets(40, nSets, i%2 == 0, rng)
			var vp core.ValuePred
			switch {
			case frac == 0:
				vp = core.Exact(lo)
			case keys > 0:
				vp = core.Uint64Range(lo, lo+uint64(width)-1)
			default:
				vp = core.Range(lo, lo+uint64(width)-1)
			}
			q := core.Query{Value: vp, Positions: []core.Position{setPosition(db, sets)}}
			if _, _, err := db.UIndex.Execute(q, core.Parallel, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CG-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo := uint64(rng.Intn(domain - width + 1))
			sets := workload.QueriedSets(40, nSets, false, rng)
			ids := make([]cgtree.SetID, len(sets))
			for j, s := range sets {
				ids[j] = cgtree.SetID(s)
			}
			var err error
			if frac == 0 {
				_, _, err = db.CG.ExactMatch(workload.Key8(lo), ids, nil)
			} else {
				_, _, err = db.CG.RangeQuery(workload.Key8(lo), workload.Key8(lo+uint64(width)-1), ids, nil)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig5 regenerates Figure 5 (exact match) at the key/set grid.
func BenchmarkFig5(b *testing.B) {
	for _, keys := range []int{0, 100, 1000} {
		for _, nSets := range []int{1, 20, 40} {
			b.Run(fmt.Sprintf("keys=%d/sets=%d", keys, nSets), func(b *testing.B) {
				benchPoint(b, keys, nSets, 0)
			})
		}
	}
}

// BenchmarkFig6 regenerates Figure 6 (10% range).
func BenchmarkFig6(b *testing.B) {
	for _, keys := range []int{0, 1000} {
		for _, nSets := range []int{1, 40} {
			b.Run(fmt.Sprintf("keys=%d/sets=%d", keys, nSets), func(b *testing.B) {
				benchPoint(b, keys, nSets, 0.10)
			})
		}
	}
}

// BenchmarkFig7 regenerates Figure 7 (2% range).
func BenchmarkFig7(b *testing.B) {
	for _, nSets := range []int{1, 40} {
		b.Run(fmt.Sprintf("keys=1000/sets=%d", nSets), func(b *testing.B) {
			benchPoint(b, 1000, nSets, 0.02)
		})
	}
}

// BenchmarkFig8 regenerates Figure 8 (0.5% and 0.2% ranges, 1000 keys).
func BenchmarkFig8(b *testing.B) {
	for _, frac := range []float64{0.005, 0.002} {
		for _, nSets := range []int{1, 40} {
			b.Run(fmt.Sprintf("range=%g%%/sets=%d", frac*100, nSets), func(b *testing.B) {
				benchPoint(b, 1000, nSets, frac)
			})
		}
	}
}

// ---- ablations -------------------------------------------------------

// BenchmarkParallelVsForward isolates the Algorithm-1 ablation: the same
// dispersed-class query under both algorithms.
func BenchmarkParallelVsForward(b *testing.B) {
	_, col, _ := getTable1(b)
	q := core.Query{
		Value:     core.OneOf("Red", "Blue", "Green"),
		Positions: []core.Position{core.OneOfClasses("CompactAutomobile", "ServiceAuto", "MilitaryBus")},
	}
	for _, alg := range []core.Algorithm{core.Parallel, core.Forward} {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := col.Execute(q, alg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNIXvsUIndex compares the U-index against the NIX structure on
// the paper's Section-4.4 contrast cases: whole-subtree lookups (NIX's
// strength) and mid-path restrictions (the U-index's stored full path vs
// NIX's per-candidate auxiliary descents).
func BenchmarkNIXvsUIndex(b *testing.B) {
	db, _, age := getTable1(b)
	nixIx, err := nix.New(pager.NewMemFile(1024), db.Store, nix.Spec{
		Name: "nix-age", Root: "Vehicle", Refs: []string{"ManufacturedBy", "President"}, Attr: "Age"})
	if err != nil {
		b.Fatal(err)
	}
	if err := nixIx.Build(); err != nil {
		b.Fatal(err)
	}
	company := db.Companies[0]
	b.Run("subtree-lookup/U-index", func(b *testing.B) {
		q := core.Query{Value: core.Exact(50), Positions: []core.Position{core.Any, core.Any, core.On("Automobile")}}
		for i := 0; i < b.N; i++ {
			if _, _, err := age.Execute(q, core.Parallel, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("subtree-lookup/NIX", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := nixIx.Lookup(50, "Automobile", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("midpath-restriction/U-index", func(b *testing.B) {
		q := core.Query{Value: core.Exact(50), Positions: []core.Position{core.Any, core.OnObjects("Company", company)}}
		for i := 0; i < b.N; i++ {
			if _, _, err := age.Execute(q, core.Parallel, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("midpath-restriction/NIX", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := nixIx.LookupRestricted(50, "Vehicle", "Company", []OID{company}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUpdates measures the Section-3.5 maintenance paths on the
// Figure-1 database: object insert, president switch (batch diff), delete.
func BenchmarkUpdates(b *testing.B) {
	db, ids := benchPaperDB(b)
	b.Run("insert-vehicle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oid, err := db.Insert("Automobile", Attrs{
				"Name": "bench", "Color": "Grey", "ManufacturedBy": ids["c2"]})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := db.Delete(oid); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("president-switch", func(b *testing.B) {
		pres := []OID{ids["e1"], ids["e2"]}
		for i := 0; i < b.N; i++ {
			if err := db.Set(ids["c2"], "President", pres[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchPaperDB builds the Example-1 database through the facade for the
// update benchmarks, with a few hundred vehicles per company so diffs are
// non-trivial.
func benchPaperDB(b *testing.B) (*Database, map[string]OID) {
	b.Helper()
	s := NewSchema()
	for _, step := range []func() error{
		func() error { return s.AddClass("Employee", "", Attr{Name: "Age", Type: Uint64}) },
		func() error {
			return s.AddClass("Company", "", Attr{Name: "Name", Type: String}, Attr{Name: "President", Ref: "Employee"})
		},
		func() error {
			return s.AddClass("Vehicle", "", Attr{Name: "Name", Type: String},
				Attr{Name: "Color", Type: String}, Attr{Name: "ManufacturedBy", Ref: "Company"})
		},
		func() error { return s.AddClass("Automobile", "Vehicle") },
	} {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	db, err := NewDatabase(s)
	if err != nil {
		b.Fatal(err)
	}
	if err := db.CreateIndex(IndexSpec{Name: "age", Root: "Vehicle",
		Refs: []string{"ManufacturedBy", "President"}, Attr: "Age"}); err != nil {
		b.Fatal(err)
	}
	ids := map[string]OID{}
	e1, _ := db.Insert("Employee", Attrs{"Age": 50})
	e2, _ := db.Insert("Employee", Attrs{"Age": 60})
	c2, _ := db.Insert("Company", Attrs{"Name": "Fiat", "President": e1})
	ids["e1"], ids["e2"], ids["c2"] = e1, e2, c2
	for i := 0; i < 300; i++ {
		if _, err := db.Insert("Automobile", Attrs{
			"Name": fmt.Sprintf("V%d", i), "Color": "Red", "ManufacturedBy": c2}); err != nil {
			b.Fatal(err)
		}
	}
	return db, ids
}

// BenchmarkPageSize sweeps the page size for exact-match queries — the
// Section-5.2 point-7 observation that larger pages wash out set-adjacency
// effects.
func BenchmarkPageSize(b *testing.B) {
	for _, pageSize := range []int{512, 1024, 4096} {
		db, err := workload.NewLargeDB(workload.LargeConfig{
			Objects: 10000, Sets: 40, Keys: 1000, Seed: 3, PageSize: pageSize})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		b.Run(fmt.Sprintf("page=%d", pageSize), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sets := workload.QueriedSets(40, 10, true, rng)
				q := core.Query{Value: core.Exact(uint64(rng.Intn(1000))),
					Positions: []core.Position{setPosition(db, sets)}}
				if _, _, err := db.UIndex.Execute(q, core.Parallel, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBulkLoadVsInsert contrasts the two index-construction paths.
func BenchmarkBulkLoadVsInsert(b *testing.B) {
	db, err := workload.NewFigure1DB(8)
	if err != nil {
		b.Fatal(err)
	}
	spec := core.Spec{Name: "c", Root: "Vehicle", Attr: "Color"}
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := memGroup(db.Store, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		// ref enumerates each vehicle's entries from the populated store;
		// the index under test starts over an empty one, so it starts empty.
		ref, err := memGroup(db.Store, spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix, err := memGroup(store.New(db.Schema), spec)
			if err != nil {
				b.Fatal(err)
			}
			for _, oid := range db.Vehicles {
				keys, err := ref.EntriesFor(oid)
				if err != nil {
					b.Fatal(err)
				}
				txs := ix.Begin(ix.AllShards()) // one shard: one transaction per vehicle
				if err := ix.ApplyKeys(txs, nil, keys); err != nil {
					b.Fatal(err)
				}
				if err := txs[0].Commit(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkExperimentGrids times the full experiment harness entry points
// at quick scale (the paper-scale runs live in cmd/uindexbench).
func BenchmarkExperimentGrids(b *testing.B) {
	cfg := experiments.GridConfig{Objects: 8000, Reps: 3, Seed: 5}
	defer experiments.ResetDBCache()
	b.Run("table1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunTable1(int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("figure5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunFigure5(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompressionAblation quantifies the Section-4.2 storage claim in
// time as well as space: identical query mixes over a compressed and an
// uncompressed U-index. (RunStorage reports the page-count side.)
func BenchmarkCompressionAblation(b *testing.B) {
	db := getLargeDB(b, 100)
	raw, err := memGroup(db.Store, core.Spec{Name: "raw", Root: "Obj", Attr: "Key", NoCompression: true})
	if err != nil {
		b.Fatal(err)
	}
	report := func(b *testing.B, ix *core.Sharded) {
		pages, err := ix.Shard(0).PageCount()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pages), "pages")
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < b.N; i++ {
			sets := workload.QueriedSets(40, 10, true, rng)
			q := core.Query{Value: core.Exact(uint64(rng.Intn(100))),
				Positions: []core.Position{setPosition(db, sets)}}
			if _, _, err := ix.Execute(q, core.Parallel, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("compressed", func(b *testing.B) { report(b, db.UIndex) })
	b.Run("uncompressed", func(b *testing.B) { report(b, raw) })
}
