package experiments

import (
	"math"
	"testing"
)

// The golden tests pin the exact counts the experiments print, so a change
// to how the experiments assemble, query or update their indexes cannot move
// a paper number unnoticed. The shape tests next to them check the paper's
// findings; these check that nothing moved at all.

// goldenTable1 is RunTable1(42): id, parallel, forward, matches.
var goldenTable1 = []struct {
	id                         string
	parallel, forward, matches int
}{
	{"1", 338, 1350, 1339},
	{"1a", 9, 37, 37},
	{"1b", 22, 64, 61},
	{"1c", 32, 93, 92},
	{"2", 235, 1350, 467},
	{"2a", 7, 37, 15},
	{"2b", 18, 64, 21},
	{"2c", 26, 93, 36},
	{"3", 1002, 1350, 6974},
	{"3a", 24, 37, 158},
	{"3b", 47, 64, 291},
	{"3c", 69, 93, 423},
	{"4", 633, 1350, 3332},
	{"4a", 15, 37, 75},
	{"4b", 30, 64, 133},
	{"4c", 46, 93, 195},
	{"5a", 22, 46, 9},
	{"5b", 256, 618, 136},
	{"6a", 416, 618, 1612},
	{"6b", 313, 618, 482},
}

const goldenTable1Nodes = 1350

func TestGoldenTable1(t *testing.T) {
	for _, pool := range []int{0, 128} {
		r, err := RunTable1With(42, Table1Options{PoolPages: pool})
		if err != nil {
			t.Fatal(err)
		}
		if r.TotalNodes != goldenTable1Nodes {
			t.Errorf("pool=%d: TotalNodes %d, want %d", pool, r.TotalNodes, goldenTable1Nodes)
		}
		if len(r.Rows) != len(goldenTable1) {
			t.Fatalf("pool=%d: %d rows, want %d", pool, len(r.Rows), len(goldenTable1))
		}
		for i, want := range goldenTable1 {
			got := r.Rows[i]
			if got.ID != want.id || got.Parallel != want.parallel || got.Forward != want.forward || got.Matches != want.matches {
				t.Errorf("pool=%d: row %s = (%d, %d, %d), want %s = (%d, %d, %d)", pool,
					got.ID, got.Parallel, got.Forward, got.Matches,
					want.id, want.parallel, want.forward, want.matches)
			}
		}
	}
}

// TestGoldenStorage pins RunStorage on the quick configuration (12,000
// objects, 40 sets, seed 1996), the one `uindexbench -exp storage -quick`
// prints.
func TestGoldenStorage(t *testing.T) {
	defer ResetDBCache()
	want := map[int][]StorageRow{
		0: {
			{"U-index (compressed)", 188, 3}, {"U-index (no compression)", 279, 3},
			{"CG-tree", 124, 3}, {"CH-tree (incl. overflow)", 175, 3}, {"H-tree forest", 179, 0},
		},
		100: {
			{"U-index (compressed)", 100, 3}, {"U-index (no compression)", 281, 3},
			{"CG-tree", 95, 3}, {"CH-tree (incl. overflow)", 103, 2}, {"H-tree forest", 160, 0},
		},
		1000: {
			{"U-index (compressed)", 133, 3}, {"U-index (no compression)", 280, 3},
			{"CG-tree", 117, 3}, {"CH-tree (incl. overflow)", 91, 2}, {"H-tree forest", 163, 0},
		},
	}
	for _, keys := range []int{0, 100, 1000} {
		r, err := RunStorage(12000, 40, keys, 1996)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != len(want[keys]) {
			t.Fatalf("keys=%d: %d rows, want %d", keys, len(r.Rows), len(want[keys]))
		}
		for i, w := range want[keys] {
			if r.Rows[i] != w {
				t.Errorf("keys=%d: row %d = %+v, want %+v", keys, i, r.Rows[i], w)
			}
		}
	}
}

// TestGoldenUpdateCost pins the page writes per operation that
// `uindexbench -exp updates` prints (seed 1996, 20 repetitions).
func TestGoldenUpdateCost(t *testing.T) {
	r, err := RunUpdateCost(1996, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"vehicle insert+delete/U-index": 7,
		"vehicle insert+delete/NIX":     3152,
		"president switch/U-index":      6.1, // one transaction per update
		"president switch/NIX":          6796,
	}
	if len(r.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(r.Rows), len(want))
	}
	for _, row := range r.Rows {
		key := row.Operation + "/" + row.Structure
		if w, ok := want[key]; !ok || row.PagesWrite != w {
			t.Errorf("%s: %v page writes/op, want %v", key, row.PagesWrite, w)
		}
	}
}

// TestGoldenFigure5 pins the quick-grid Figure 5 curves. Each value is the
// page-read total over the grid's 15 repetitions (the printed average times
// 15), which keeps the pinned numbers integers.
func TestGoldenFigure5(t *testing.T) {
	defer ResetDBCache()
	cfg := QuickGrid()
	want := []struct {
		sets, keys int
		curves     [][3]int // U(near), U(non-near), CG per x value
	}{
		{40, 0, [][3]int{{45, 45, 45}, {45, 45, 195}, {45, 45, 345}, {45, 45, 495}, {45, 45, 645}}},
		{40, 100, [][3]int{{45, 45, 46}, {51, 58, 196}, {56, 57, 348}, {54, 57, 498}, {61, 61, 654}}},
		{40, 1000, [][3]int{{45, 45, 45}, {45, 45, 196}, {45, 47, 345}, {47, 48, 495}, {50, 50, 645}}},
		{8, 0, [][3]int{{45, 45, 45}, {45, 45, 64}, {45, 45, 97}, {45, 45, 130}, {45, 45, 161}}},
		{8, 100, [][3]int{{46, 47, 31}, {48, 53, 47}, {54, 55, 84}, {57, 58, 117}, {56, 56, 147}}},
		{8, 1000, [][3]int{{45, 45, 30}, {45, 47, 45}, {45, 45, 75}, {47, 48, 105}, {46, 46, 136}}},
	}
	fig, err := RunFigure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Groups) != len(want) {
		t.Fatalf("%d groups, want %d", len(fig.Groups), len(want))
	}
	total := func(avg float64) int { return int(math.Round(avg * float64(cfg.Reps))) }
	for i, w := range want {
		g := fig.Groups[i]
		if g.Sets != w.sets || g.Keys != w.keys || len(g.Curves) != len(w.curves) {
			t.Fatalf("group %d = (%d sets, %d keys, %d points), want (%d, %d, %d)",
				i, g.Sets, g.Keys, len(g.Curves), w.sets, w.keys, len(w.curves))
		}
		for j, c := range g.Curves {
			got := [3]int{total(c.UNear), total(c.UFar), total(c.CG)}
			if got != w.curves[j] {
				t.Errorf("%d sets, %d keys, x=%d: totals %v, want %v", w.sets, w.keys, g.XSets[j], got, w.curves[j])
			}
		}
	}
}
