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
