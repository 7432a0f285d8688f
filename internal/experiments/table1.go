// Package experiments regenerates every table and figure of the paper's
// Section 5: the Table-1 node-count experiment on the enhanced Figure-1
// database, and the Figure 5–8 page-read comparisons of the U-index against
// the CG-tree on the 150,000-object class-hierarchy database (with CH-tree
// and H-tree curves available as extensions).
package experiments

import (
	"fmt"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/pager"
	"repro/internal/workload"
)

// Table1Row is one query of the paper's Table 1.
type Table1Row struct {
	ID          string
	Description string
	Parallel    int // nodes visited by the parallel retrieval algorithm
	Forward     int // nodes visited by forward scanning
	Matches     int
	// Physical counts the buffer pool's page fetches from the backing
	// file for this row (both algorithms); 0 when no pool is configured.
	// Unlike Parallel/Forward it depends on cache state, so it is
	// reported alongside, never instead of, the paper's logical counts.
	Physical int
}

// Table1Result is the full experiment.
type Table1Result struct {
	Rows       []Table1Row
	TotalNodes int // nodes of the color index (the paper reports 1562)
	Records    int
	// Pool holds the aggregate buffer-pool counters when the experiment
	// ran with Table1Options.PoolPages > 0, nil otherwise.
	Pool *bufferpool.Stats
}

// Table1Options configures optional machinery for the Table-1 experiment.
// The zero value reproduces the paper's setup exactly.
type Table1Options struct {
	// PoolPages, when positive, routes both indexes through buffer pools
	// of that many frames and reports physical-read counts per row. The
	// logical node counts (the paper's numbers) are unaffected.
	PoolPages int
}

// PaperTable1 maps query id to the node count the paper reports, for the
// EXPERIMENTS.md comparison (queries 3*, 4* report parallel | forward).
var PaperTable1 = map[string][2]int{
	"1": {35, 0}, "1a": {19, 0}, "1b": {24, 0}, "1c": {28, 0},
	"2": {28, 0}, "2a": {15, 0}, "2b": {20, 0}, "2c": {24, 0},
	"3": {33, 51}, "3a": {22, 41}, "3b": {25, 44}, "3c": {30, 47},
	"4": {29, 41}, "4a": {16, 32}, "4b": {19, 34}, "4c": {24, 37},
	"5a": {10, 0}, "5b": {20, 0}, "6a": {22, 0}, "6b": {21, 0},
}

// RunTable1 builds the 12,000-record database with the paper's B-tree
// geometry (at most 10 entries per node) and runs the twenty queries of
// Table 1, measuring visited nodes under both retrieval algorithms. Each
// index is a one-shard group, the engine's unsharded index.
func RunTable1(seed int64) (*Table1Result, error) {
	return RunTable1With(seed, Table1Options{})
}

// RunTable1With is RunTable1 with explicit options.
func RunTable1With(seed int64, opts Table1Options) (*Table1Result, error) {
	db, err := workload.NewFigure1DB(seed)
	if err != nil {
		return nil, err
	}
	var pools []*bufferpool.Pool
	newIndex := func(spec core.Spec) (*core.Sharded, error) {
		var f pager.File = pager.NewMemFile(1024)
		if opts.PoolPages > 0 {
			p, err := bufferpool.New(f, bufferpool.Config{Pages: opts.PoolPages})
			if err != nil {
				return nil, err
			}
			pools = append(pools, p)
			f = p
		}
		return core.NewSharded(db.Store, spec, nil, []pager.File{f}, nil)
	}
	physicalReads := func() int64 {
		var n int64
		for _, p := range pools {
			n += p.PoolStats().PhysicalReads
		}
		return n
	}
	colorIx, err := newIndex(core.Spec{
		Name: "color", Root: "Vehicle", Attr: "Color", MaxEntries: 10})
	if err != nil {
		return nil, err
	}
	ageIx, err := newIndex(core.Spec{
		Name: "age", Root: "Vehicle", Refs: []string{"ManufacturedBy", "President"},
		Attr: "Age", MaxEntries: 10})
	if err != nil {
		return nil, err
	}

	// "All X" queries enumerate the color domain, the Section-3.4 query
	// translation for a value wildcard over a known finite domain.
	allColors := make([]any, len(workload.Colors))
	for i, c := range workload.Colors {
		allColors[i] = c
	}
	all := core.ValuePred{Values: allColors}
	colors := func(n int) core.ValuePred {
		return core.ValuePred{Values: []any{"Red", "Blue", "Green"}[:n:n]}
	}
	type q struct {
		id, desc string
		ix       *core.Sharded
		query    core.Query
	}
	queries := []q{
		{"1", "all Buses (C5C*)", colorIx, core.Query{Value: all, Positions: []core.Position{core.On("Bus")}}},
		{"1a", "red Buses", colorIx, core.Query{Value: colors(1), Positions: []core.Position{core.On("Bus")}}},
		{"1b", "red+blue Buses", colorIx, core.Query{Value: colors(2), Positions: []core.Position{core.On("Bus")}}},
		{"1c", "red+blue+green Buses", colorIx, core.Query{Value: colors(3), Positions: []core.Position{core.On("Bus")}}},
		{"2", "all PassengerBuses (C5CC)", colorIx, core.Query{Value: all, Positions: []core.Position{core.On("PassengerBus")}}},
		{"2a", "red PassengerBuses", colorIx, core.Query{Value: colors(1), Positions: []core.Position{core.On("PassengerBus")}}},
		{"2b", "red+blue PassengerBuses", colorIx, core.Query{Value: colors(2), Positions: []core.Position{core.On("PassengerBus")}}},
		{"2c", "red+blue+green PassengerBuses", colorIx, core.Query{Value: colors(3), Positions: []core.Position{core.On("PassengerBus")}}},
		{"3", "all Automobiles (C5A*)", colorIx, core.Query{Value: all, Positions: []core.Position{core.On("Automobile")}}},
		{"3a", "red Automobiles", colorIx, core.Query{Value: colors(1), Positions: []core.Position{core.On("Automobile")}}},
		{"3b", "red+blue Automobiles", colorIx, core.Query{Value: colors(2), Positions: []core.Position{core.On("Automobile")}}},
		{"3c", "red+blue+green Automobiles", colorIx, core.Query{Value: colors(3), Positions: []core.Position{core.On("Automobile")}}},
		{"4", "Compact or Service autos (C5AA|C5AC)", colorIx, core.Query{Value: all, Positions: []core.Position{core.OneOfClasses("CompactAutomobile", "ServiceAuto")}}},
		{"4a", "red Compact|Service", colorIx, core.Query{Value: colors(1), Positions: []core.Position{core.OneOfClasses("CompactAutomobile", "ServiceAuto")}}},
		{"4b", "red+blue Compact|Service", colorIx, core.Query{Value: colors(2), Positions: []core.Position{core.OneOfClasses("CompactAutomobile", "ServiceAuto")}}},
		{"4c", "red+blue+green Compact|Service", colorIx, core.Query{Value: colors(3), Positions: []core.Position{core.OneOfClasses("CompactAutomobile", "ServiceAuto")}}},
		{"5a", "companies, president age = 50", ageIx, core.Query{Value: core.Exact(50), Distinct: 2}},
		{"5b", "companies, president age > 50", ageIx, core.Query{Value: core.Range(51, nil), Distinct: 2}},
		{"6a", "Automobiles by AutoCompanies, age > 50", ageIx, core.Query{
			Value:     core.Range(51, nil),
			Positions: []core.Position{core.Any, core.On("AutoCompany"), core.On("Automobile")}}},
		{"6b", "Trucks by AutoCompanies, age > 50", ageIx, core.Query{
			Value:     core.Range(51, nil),
			Positions: []core.Position{core.Any, core.On("AutoCompany"), core.On("Truck")}}},
	}

	res := &Table1Result{Records: db.Store.Len()}
	for _, tc := range queries {
		// With a pool the tree's own node cache is dropped per query so
		// page traffic reaches the pool; this consumes no randomness and
		// cannot change the logical node counts (each query accounts
		// distinct node visits before any cache is consulted).
		if opts.PoolPages > 0 {
			tc.ix.DropCache()
		}
		physBefore := physicalReads()
		mp, sp, err := tc.ix.Execute(tc.query, core.Parallel, nil)
		if err != nil {
			return nil, fmt.Errorf("query %s parallel: %w", tc.id, err)
		}
		mf, sf, err := tc.ix.Execute(tc.query, core.Forward, nil)
		if err != nil {
			return nil, fmt.Errorf("query %s forward: %w", tc.id, err)
		}
		if len(mp) != len(mf) {
			return nil, fmt.Errorf("query %s: algorithms disagree (%d vs %d matches)", tc.id, len(mp), len(mf))
		}
		res.Rows = append(res.Rows, Table1Row{
			ID: tc.id, Description: tc.desc,
			Parallel: sp.PagesRead, Forward: sf.PagesRead, Matches: len(mp),
			Physical: int(physicalReads() - physBefore),
		})
	}
	total, err := colorIx.Shard(0).PageCount()
	if err != nil {
		return nil, err
	}
	res.TotalNodes = total
	if opts.PoolPages > 0 {
		var agg bufferpool.Stats
		for _, p := range pools {
			agg.Add(p.PoolStats())
		}
		res.Pool = &agg
	}
	return res, nil
}
