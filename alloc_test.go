package uindex

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// TestRangeScanAllocsScaleWithMatches is the allocation regression guard
// for the range executor: a value-range query inspects and matches
// thousands of entries, and neither may cost a heap object each. The scan
// parses every key into a reusable matchScratch, and each shard collects its
// matches into a path arena and a few value runs (one decoded value per
// run of equal attribute bytes), so a query allocates for its setup, the
// amortized growth of those buffers, one value per run, and the one
// exact-size result slice — a count that grows with neither entries scanned
// nor matches. It runs on one shard and on four, where the shards' raw keys
// are buffered too and merged.
func TestRangeScanAllocsScaleWithMatches(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testRangeScanAllocs(t, shards)
		})
	}
}

func testRangeScanAllocs(t *testing.T, shards int) {
	s := NewSchema()
	if err := s.AddClass("Vehicle", "", Attr{Name: "Color", Type: String}); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"Automobile", "Truck"} {
		if err := s.AddClass(sub, "Vehicle"); err != nil {
			t.Fatal(err)
		}
	}
	db, err := NewDatabaseWith(s, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(42))
	colors := []string{"Red", "Blue", "White", "Green", "Black", "Silver"}
	classes := []string{"Vehicle", "Automobile", "Truck"}
	if err := db.CreateIndex(IndexSpec{Name: "color", Root: "Vehicle", Attr: "Color"}); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := db.Insert(classes[rng.Intn(len(classes))], Attrs{
			"Color": colors[rng.Intn(len(colors))]}); err != nil {
			t.Fatal(err)
		}
	}

	// Black..Red spans four of the six color clusters; every entry in the
	// span is inspected and matches (positions are unrestricted), so the
	// query both scans and matches thousands of entries.
	q := Query{Value: Range("Black", "Red"), Positions: []Position{On("Vehicle")}}
	ctx := context.Background()
	matches, stats, err := db.Query(ctx, "color", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < n/3 || stats.EntriesScanned < len(matches) {
		t.Fatalf("weak fixture: %d matches, %d entries scanned", len(matches), stats.EntriesScanned)
	}

	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := db.Query(ctx, "color", q); err != nil {
			t.Fatal(err)
		}
	})
	// A flat allowance for the per-query setup (plan, intervals, tracker,
	// scan state, one goroutine per shard) plus the logarithmic growth of
	// each shard's buffers. A heap object per match — a Path copy, a boxed
	// value, a buffered key — blows past it by a factor of several.
	limit := float64(400 + len(matches)/50)
	if allocs > limit {
		t.Fatalf("range query allocates %.0f per run for %d matches (%d entries scanned); limit %.0f — "+
			"result assembly is allocating per match again", allocs, len(matches), stats.EntriesScanned, limit)
	}
	t.Logf("range query: %.0f allocs, %d matches, %d entries scanned", allocs, len(matches), stats.EntriesScanned)
}

// TestRangeScanAllocsFlatInSize is the counter gate on a warm sharded range
// query: its working memory — each shard's match buffers, key scratch and
// page tracker — is reused across queries, and the result is one []Match and
// one path array, so quadrupling the matches adds no allocations beyond a
// small slack. A buffer that grows per query again (doubling appends, a
// block arena) adds about one allocation per doubling on every shard, and
// the 4n query fails the difference; setup cost that creeps up fails the
// flat bound on the n query.
func TestRangeScanAllocsFlatInSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	const n = 2000
	small := rangeScanAllocs(t, n)
	large := rangeScanAllocs(t, 4*n)
	t.Logf("warm 4-shard range query: %.1f allocs over %d objects, %.1f over %d", small, n, large, 4*n)
	// Measured at 83 on n objects; the bound is about 1.5 times that.
	if small > 125 {
		t.Errorf("range query over %d objects allocates %.1f per run; bound 125", n, small)
	}
	if large-small > 4 {
		t.Errorf("range query allocates %.1f over %d objects and %.1f over %d: +%.1f, bound +4 — "+
			"per-query working memory grows with the result again", small, n, large, 4*n, large-small)
	}
}

// rangeScanAllocs builds a 4-shard color index over n vehicles and returns
// the allocations of one warm range query that matches every vehicle in four
// of its six colors.
func rangeScanAllocs(t *testing.T, n int) float64 {
	t.Helper()
	s := NewSchema()
	if err := s.AddClass("Vehicle", "", Attr{Name: "Color", Type: String}); err != nil {
		t.Fatal(err)
	}
	classes := []string{"Vehicle", "Automobile", "Truck", "Bus"}
	for _, sub := range classes[1:] {
		if err := s.AddClass(sub, "Vehicle"); err != nil {
			t.Fatal(err)
		}
	}
	db, err := NewDatabaseWith(s, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateIndex(IndexSpec{Name: "color", Root: "Vehicle", Attr: "Color"}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(46))
	colors := []string{"Red", "Blue", "White", "Green", "Black", "Silver"}
	var attrs []Attrs
	var cls []string
	for i := 0; i < n; i++ {
		cls = append(cls, classes[rng.Intn(len(classes))])
		attrs = append(attrs, Attrs{"Color": colors[rng.Intn(len(colors))]})
	}
	for i := range attrs {
		if _, err := db.Insert(cls[i], attrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if stats, _ := db.ShardStats("color"); len(stats) != 4 {
		t.Fatalf("color index has %d shards, want 4", len(stats))
	}
	q := Query{Value: Range("Black", "Red"), Positions: []Position{On("Vehicle")}}
	ctx := context.Background()
	var ms []Match
	for i := 0; i < 3; i++ {
		if ms, _, err = db.Query(ctx, "color", q); err != nil {
			t.Fatal(err)
		}
	}
	if len(ms) < n/2 {
		t.Fatalf("weak fixture: %d matches over %d objects", len(ms), n)
	}
	return testing.AllocsPerRun(20, func() {
		if _, _, err := db.Query(ctx, "color", q); err != nil {
			t.Fatal(err)
		}
	})
}
