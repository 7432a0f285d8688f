package core

import (
	"context"
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/encoding"
	"repro/internal/pager"
)

// newSharded builds an in-memory group of up to n shards over the fixture's
// store.
func newSharded(t *testing.T, f *fixture, spec Spec, n int) *Sharded {
	t.Helper()
	smap := NewShardMap(shardCodes(t, f, spec), n)
	files := make([]pager.File, smap.Shards())
	for i := range files {
		files[i] = pager.NewMemFile(0)
	}
	sh, err := NewSharded(f.st, spec, smap, files, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// shardCodes is ShardCodes failing the test on error.
func shardCodes(t *testing.T, f *fixture, spec Spec) []encoding.Code {
	t.Helper()
	codes, err := ShardCodes(f.st, spec)
	if err != nil {
		t.Fatal(err)
	}
	return codes
}

var colorSpec = Spec{Name: "veh-color", Root: "Vehicle", Attr: "Color"}

func TestShardMapRouting(t *testing.T) {
	f := newFixture(t)
	codes := shardCodes(t, f, colorSpec)
	// The Vehicle hierarchy has 4 classes: Vehicle, Automobile,
	// CompactAutomobile, Truck.
	if len(codes) != 4 {
		t.Fatalf("got %d shard codes %v, want 4", len(codes), codes)
	}
	for i := 1; i < len(codes); i++ {
		if codes[i] <= codes[i-1] {
			t.Fatalf("shard codes not ascending: %v", codes)
		}
	}
	m := NewShardMap(codes, 4)
	if m.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", m.Shards())
	}
	// Each class code routes to its own shard, in code order.
	for i, c := range codes {
		if got := m.ShardOf(c); got != i {
			t.Errorf("ShardOf(%s) = %d, want %d", c, got, i)
		}
	}
	// A subclass added later (no exact boundary) still routes into its
	// ancestor's interval, not out of range.
	child, err := codes[1].Child("zz")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ShardOf(child); got < m.ShardOf(codes[1]) || got >= m.Shards() {
		t.Errorf("ShardOf(descendant %s) = %d out of range", child, got)
	}
	// Requesting more shards than codes clamps.
	if got := NewShardMap(codes, 64).Shards(); got != 4 {
		t.Errorf("NewShardMap(4 codes, 64).Shards() = %d, want 4", got)
	}
	// Bounds round-trip.
	m2, err := ShardMapFromBounds(m.Bounds())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m2.Bounds(), m.Bounds()) {
		t.Errorf("bounds round-trip mismatch: %v vs %v", m2.Bounds(), m.Bounds())
	}
	if _, err := ShardMapFromBounds([]encoding.Code{"C2", "C1"}); err == nil {
		t.Error("ShardMapFromBounds accepted descending bounds")
	}
}

func TestShardOfKeyParsesTerminalCode(t *testing.T) {
	f := newFixture(t)
	ix := f.colorIndex(t).Prototype()
	m := NewShardMap(shardCodes(t, f, colorSpec), 4)
	keys, err := ix.EntriesFor(f.v4) // CompactAutomobile, Red
	if err != nil || len(keys) != 1 {
		t.Fatalf("EntriesFor: %v keys, err %v", len(keys), err)
	}
	want := m.ShardOf(ix.Coding().MustCode("CompactAutomobile"))
	got, err := m.ShardOfKey(ix.AttrType(), keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("ShardOfKey = %d, want %d (routes on the object's class, not the attr value)", got, want)
	}
}

// TestShardedInvariance is the core-level invariance check: for every shard
// count, every algorithm, and a battery of query shapes, the sharded
// executor returns byte-identical matches in identical order to the
// one-shard index, with identical Matches/EntriesScanned counts.
func TestShardedInvariance(t *testing.T) {
	f := newFixture(t)
	flat := f.colorIndex(t)
	flatAge := f.ageIndex(t)

	colorQueries := []Query{
		{Value: Exact("Red"), Positions: []Position{On("Vehicle")}},
		{Value: Exact("Red"), Positions: []Position{On("Automobile")}},
		{Value: Exact("White"), Positions: []Position{OnExact("Automobile")}},
		{Value: OneOf("Red", "Blue"), Positions: []Position{OneOfClasses("CompactAutomobile", "Truck")}},
		{Value: Range(nil, nil), Positions: []Position{On("Vehicle")}},
		{Value: Range("Blue", "Red"), Positions: []Position{On("Vehicle")}},
		{Value: Exact("White"), Positions: []Position{OnObjects("Vehicle", f.v1, f.v6)}},
	}
	ageQueries := []Query{
		{Value: Exact(uint64(50)), Positions: []Position{Any, Any, On("Vehicle")}},
		{Value: Uint64Range(45, 60), Positions: []Position{On("Employee"), On("AutoCompany")}},
		{Value: Exact(uint64(50)), Positions: []Position{Any, Any, On("Vehicle")}, Distinct: 2},
		{Value: Range(uint64(40), uint64(60)), Positions: []Position{Any, OnObjects("Company", f.c2)}},
	}

	check := func(t *testing.T, flat, sh *Sharded, queries []Query) {
		t.Helper()
		for qi, q := range queries {
			for _, alg := range []Algorithm{Parallel, Forward} {
				want, wantStats, err := flat.Execute(q, alg, nil)
				if err != nil {
					t.Fatalf("q%d %v flat: %v", qi, alg, err)
				}
				got, gotStats, err := sh.ExecuteCtx(context.Background(), q, &ExecContext{Algorithm: alg})
				if err != nil {
					t.Fatalf("q%d %v sharded: %v", qi, alg, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("q%d %v: sharded matches diverge\n got %v\nwant %v", qi, alg, got, want)
				}
				if gotStats.Matches != wantStats.Matches {
					t.Errorf("q%d %v: Matches %d, want %d", qi, alg, gotStats.Matches, wantStats.Matches)
				}
				// Parallel skips irrelevant clusters in both engines, so its
				// scan count is invariant. The forward baseline wades through
				// whole value clusters; shard pruning legitimately spares it
				// entries of classes outside the queried subtree, so sharded
				// may scan fewer — never more.
				if alg == Parallel && gotStats.EntriesScanned != wantStats.EntriesScanned {
					t.Errorf("q%d %v: EntriesScanned %d, want %d", qi, alg, gotStats.EntriesScanned, wantStats.EntriesScanned)
				}
				if alg == Forward && gotStats.EntriesScanned > wantStats.EntriesScanned {
					t.Errorf("q%d %v: EntriesScanned %d exceeds flat %d", qi, alg, gotStats.EntriesScanned, wantStats.EntriesScanned)
				}
			}
		}
	}

	for _, n := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("color-shards-%d", n), func(t *testing.T) {
			sh := newSharded(t, f, Spec{Name: "veh-color-sh", Root: "Vehicle", Attr: "Color"}, n)
			if sh.Len() != flat.Len() {
				t.Fatalf("sharded Len %d, want %d", sh.Len(), flat.Len())
			}
			check(t, flat, sh, colorQueries)
		})
	}
	// The age path index's terminal hierarchy (Employee) has one class, so
	// the map clamps to one shard; the group must still behave identically.
	t.Run("age-path", func(t *testing.T) {
		sh := newSharded(t, f, Spec{
			Name: "veh-age-sh", Root: "Vehicle",
			Refs: []string{"ManufacturedBy", "President"}, Attr: "Age",
		}, 4)
		if got := sh.NumShards(); got != 1 {
			t.Fatalf("path index shards = %d, want 1 (single terminal class)", got)
		}
		check(t, flatAge, sh, ageQueries)
	})
}

// TestShardedSinglePageCountInvariance: a group whose shard map clamps to one
// shard must report the exact PagesRead of the default one-shard group (same
// tree, same tracker semantics) — the paper's Table 1 / Figs 5-8 logical
// counts.
func TestShardedSinglePageCountInvariance(t *testing.T) {
	f := newFixture(t)
	flat := f.colorIndex(t)
	sh := newSharded(t, f, Spec{Name: "c1", Root: "Vehicle", Attr: "Color"}, 1)
	q := Query{Value: Exact("Red"), Positions: []Position{On("Vehicle")}}
	for _, alg := range []Algorithm{Parallel, Forward} {
		_, want, err := flat.Execute(q, alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := sh.Execute(q, alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.PagesRead != want.PagesRead {
			t.Errorf("%v: single-shard PagesRead %d, want %d", alg, got.PagesRead, want.PagesRead)
		}
	}
}

// applyLocked routes one old→new entry-set change through the group under
// the given shard locks — EntriesFor + DiffKeys + ApplyKeys, the facade's
// whole index-maintenance step.
func applyLocked(sh *Sharded, mask uint64, olds, news [][]byte) error {
	sh.LockShards(mask)
	defer sh.UnlockShards(mask)
	return sh.ApplyKeys(DiffKeys(olds, news))
}

// TestShardedMutationRouting: incremental insert/diff/remove edits through
// the sharded group keep every shard's subset disjoint and the union equal to
// a freshly built unsharded index.
func TestShardedMutationRouting(t *testing.T) {
	f := newFixture(t)
	spec := Spec{Name: "c-mut", Root: "Vehicle", Attr: "Color"}
	sh := newSharded(t, f, spec, 4)

	oid, err := f.st.Insert("Truck", map[string]any{"Color": "Green"})
	if err != nil {
		t.Fatal(err)
	}
	all := sh.WriteShards("Truck")
	if bits.OnesCount64(all) != 1 {
		t.Fatalf("WriteShards(CH class) = %b, want a single shard", all)
	}
	old, _ := sh.EntriesFor(oid)
	if err := applyLocked(sh, all, nil, old); err != nil {
		t.Fatal(err)
	}
	// Recolor via diff routing.
	if _, err := f.st.SetAttr(oid, "Color", "Red"); err != nil {
		t.Fatal(err)
	}
	nw, _ := sh.EntriesFor(oid)
	if err := applyLocked(sh, all, old, nw); err != nil {
		t.Fatal(err)
	}

	// Compare against a rebuilt one-shard index over the same store state.
	flat := mustGroup(t, f.st, Spec{Name: "c-flat", Root: "Vehicle", Attr: "Color"})
	if sh.Len() != flat.Len() {
		t.Fatalf("after mutations: sharded Len %d, flat %d", sh.Len(), flat.Len())
	}
	q := Query{Value: Range(nil, nil), Positions: []Position{On("Vehicle")}}
	want, _, err := flat.Execute(q, Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sh.Execute(q, Parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after mutations: sharded %v, want %v", got, want)
	}

	// Remove and re-verify shard disjointness via total length.
	if err := applyLocked(sh, all, nw, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.st.Delete(oid); err != nil {
		t.Fatal(err)
	}
	if sh.Len() != flat.Len()-1 {
		t.Fatalf("after Remove: Len %d, want %d", sh.Len(), flat.Len()-1)
	}
}

// TestShardedResultAliasing pins the storage contract of a gathered result:
// on a 4-shard group, with and without Distinct, every Path is capped at its
// own entries, so appending to one match's Path leaves the next match's
// unchanged, and after such appends every match still equals a freshly
// collected copy from a one-shard group.
func TestShardedResultAliasing(t *testing.T) {
	f := newFixture(t)
	// Company has four classes, so the group really splits into 4 shards.
	spec := Spec{Name: "veh-maker", Root: "Vehicle", Refs: []string{"ManufacturedBy"}, Attr: "Name"}
	sh := newSharded(t, f, spec, 4)
	if got := sh.NumShards(); got != 4 {
		t.Fatalf("shards = %d, want 4", got)
	}
	flat := mustGroup(t, f.st, spec)
	for _, q := range []Query{
		{Value: Range(nil, nil)},
		{Value: Range(nil, nil), Distinct: 1},
	} {
		for _, alg := range []Algorithm{Parallel, Forward} {
			ms, _, err := sh.Execute(q, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := flat.Execute(q, alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) < 3 {
				t.Fatalf("Distinct=%d %v: weak fixture, %d matches", q.Distinct, alg, len(ms))
			}
			for i := range ms {
				if len(ms[i].Path) != cap(ms[i].Path) {
					t.Fatalf("match %d: Path len %d cap %d, want capped", i, len(ms[i].Path), cap(ms[i].Path))
				}
				if i+1 < len(ms) {
					next := append([]encoding.PathEntry(nil), ms[i+1].Path...)
					_ = append(ms[i].Path, encoding.PathEntry{Code: "C9", OID: 999})
					if !reflect.DeepEqual(ms[i+1].Path, next) {
						t.Fatalf("Distinct=%d %v: append to match %d's Path changed match %d: %v, was %v",
							q.Distinct, alg, i, i+1, ms[i+1].Path, next)
					}
				}
			}
			if !reflect.DeepEqual(ms, want) {
				t.Errorf("Distinct=%d %v: after appends\n got %v\nwant %v", q.Distinct, alg, ms, want)
			}
		}
	}
}

// TestShardedSnapshotIsolation: a sharded snapshot pins every shard; writes
// after the pin are invisible through it.
func TestShardedSnapshotIsolation(t *testing.T) {
	f := newFixture(t)
	sh := newSharded(t, f, Spec{Name: "c-snap", Root: "Vehicle", Attr: "Color"}, 3)
	snap := sh.Snapshot()
	defer snap.Release()
	before := snap.Len()

	oid, err := f.st.Insert("Automobile", map[string]any{"Color": "Red"})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := sh.EntriesFor(oid)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyLocked(sh, sh.WriteShards("Automobile"), nil, keys); err != nil {
		t.Fatal(err)
	}

	if snap.Len() != before {
		t.Fatalf("snapshot Len moved from %d to %d after a write", before, snap.Len())
	}
	q := Query{Value: Exact("Red"), Positions: []Position{On("Vehicle")}}
	snapMs, _, err := snap.ExecuteCtx(context.Background(), q, &ExecContext{})
	if err != nil {
		t.Fatal(err)
	}
	liveMs, _, err := sh.ExecuteCtx(context.Background(), q, &ExecContext{})
	if err != nil {
		t.Fatal(err)
	}
	if len(liveMs) != len(snapMs)+1 {
		t.Fatalf("live matches %d, snapshot %d; want live = snapshot+1", len(liveMs), len(snapMs))
	}
	if err := snap.Release(); err != nil {
		t.Fatal(err)
	}
}
