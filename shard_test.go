package uindex

// Shard tests at the facade level: the invariance suite (a sharded index
// answers every query identically to an unsharded one, in the same order),
// the sharded disk layout (manifest-pinned reopen, layout precedence over
// Options.Shards), the batched write surface (Apply), per-shard metrics,
// and a race-enabled cross-shard writer stress.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/pager"
)

// queryAll runs the stress workload under both algorithms and returns every
// result list in a fixed order.
func queryAll(t *testing.T, db *Database) [][]Match {
	t.Helper()
	var out [][]Match
	for _, j := range stressQueries() {
		for _, alg := range []Algorithm{Parallel, Forward} {
			ms, _, err := db.Query(context.Background(), j.Index, j.Query, WithAlgorithm(alg))
			if err != nil {
				t.Fatalf("%s %v: %v", j.Index, alg, err)
			}
			out = append(out, ms)
		}
	}
	return out
}

// TestShardInvariance is the acceptance criterion of the sharding layer: for
// every shard count, every query of the stress workload returns exactly the
// same matches in exactly the same (key) order as the unsharded index, under
// both retrieval algorithms — before and after mutations.
func TestShardInvariance(t *testing.T) {
	for _, shards := range []int{2, 3, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			flat := stressDB(t, 0)
			defer flat.Close()
			db := stressDBWith(t, Options{Shards: shards})
			defer db.Close()

			want := queryAll(t, flat)
			got := queryAll(t, db)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("query %d: sharded results diverge (%d matches, want %d)",
						i, len(got[i]), len(want[i]))
				}
			}

			// Identical mutations on both: the databases share seeded
			// history, so both assign the same OIDs and must keep agreeing.
			for _, d := range []*Database{flat, db} {
				oid, err := d.Insert("Truck", Attrs{"Color": "Cyan"})
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Set(oid, "Color", "Magenta"); err != nil {
					t.Fatal(err)
				}
				if _, err := d.Insert("CompactAutomobile", Attrs{"Color": "Cyan"}); err != nil {
					t.Fatal(err)
				}
			}
			wantAfter := queryAll(t, flat)
			gotAfter := queryAll(t, db)
			for i := range wantAfter {
				if !reflect.DeepEqual(gotAfter[i], wantAfter[i]) {
					t.Fatalf("query %d after mutations: sharded results diverge", i)
				}
			}
		})
	}
}

// TestShardCountClamped pins the Options.Shards clamp: the effective count
// never exceeds the number of classes under the index's terminal class.
func TestShardCountClamped(t *testing.T) {
	db := stressDBWith(t, Options{Shards: 100})
	defer db.Close()
	// The shard space is the terminal-class subtree, since that code leads
	// every key: Vehicle, Automobile, Truck, CompactAutomobile → 4 shards
	// for the CH index; the age path index terminates at Employee (no
	// subclasses) → 1 shard.
	for index, want := range map[string]int{"color": 4, "age": 1} {
		n, ok := db.NumShards(index)
		if !ok || n != want {
			t.Fatalf("NumShards(%s) = %d, %v; want %d", index, n, ok, want)
		}
	}
	if _, ok := db.NumShards("nope"); ok {
		t.Fatal("NumShards of missing index succeeded")
	}
}

// TestShardStats checks the per-shard series: entries sum to the index
// total, a CH-index mutation moves exactly one shard's write counter, and
// Metrics carries the same numbers.
func TestShardStats(t *testing.T) {
	db := stressDBWith(t, Options{Shards: 4})
	defer db.Close()

	stats, ok := db.ShardStats("color")
	if !ok || len(stats) != 4 {
		t.Fatalf("ShardStats = %v, %v", stats, ok)
	}
	total, populated := 0, 0
	for i, s := range stats {
		if s.Shard != i {
			t.Fatalf("shard %d reports position %d", i, s.Shard)
		}
		total += s.Entries
		if s.Entries > 0 {
			populated++
		}
	}
	// stressDB inserts 600 vehicles, one color entry each.
	if total != 600 {
		t.Fatalf("shard entries sum to %d, want 600", total)
	}
	if populated < 2 {
		t.Fatalf("only %d of 4 shards populated; routing is degenerate", populated)
	}

	// A CH-index mutation locks exactly one shard; the write counter moves
	// on that shard only.
	before, _ := db.ShardStats("color")
	if _, err := db.Insert("Truck", Attrs{"Color": "Pink"}); err != nil {
		t.Fatal(err)
	}
	after, _ := db.ShardStats("color")
	moved := 0
	for i := range after {
		if after[i].Writes != before[i].Writes {
			moved++
		}
	}
	if moved != 1 {
		t.Fatalf("one CH insert moved %d color shard write counters, want 1", moved)
	}
	// The same insert maintains the path index, whose keys depend on
	// reference chains: it locks every shard of the age group.
	ageStats, _ := db.ShardStats("age")
	for i, s := range ageStats {
		if s.Writes == 0 {
			t.Fatalf("age shard %d saw no write traffic; path mutations must lock all shards", i)
		}
	}

	m := db.Metrics()
	if !reflect.DeepEqual(m.Shards["color"], after) {
		t.Fatalf("Metrics().Shards disagrees with ShardStats:\n%v\n%v", m.Shards["color"], after)
	}
	if _, ok := db.ShardStats("nope"); ok {
		t.Fatal("ShardStats of missing index succeeded")
	}
}

// TestShardedDiskLayout checks the on-disk artifacts: there is one layout.
// Every index is a manifest plus one .uidx file per shard — an unsharded
// index is a manifest with one shard — and nothing else is written.
func TestShardedDiskLayout(t *testing.T) {
	for _, tc := range []struct{ ask, shards int }{{3, 3}, {1, 1}, {0, 1}} {
		dir := t.TempDir()
		db := stressDBWith(t, Options{Dir: dir, Shards: tc.ask})
		want := map[string]bool{"color.manifest": true, "age.manifest": true, "age.shard0.uidx": true}
		for i := 0; i < tc.shards; i++ {
			want[fmt.Sprintf("color.shard%d.uidx", i)] = true
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if !want[e.Name()] {
				t.Errorf("Shards %d: unexpected file %s", tc.ask, e.Name())
			}
			delete(want, e.Name())
		}
		for name := range want {
			t.Errorf("Shards %d: missing %s", tc.ask, name)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedDiskReopen closes a disk-backed database and reopens its index
// files from the manifest: the shard count and routing come from disk (a
// different Options.Shards is ignored, in both directions), and every query
// answers identically to the pre-close state.
func TestShardedDiskReopen(t *testing.T) {
	for _, tc := range []struct{ created, reopened, want int }{
		{3, 7, 3}, // more asked for than the manifest has
		{0, 4, 1}, // a 1-shard manifest stays one shard
	} {
		dir := t.TempDir()
		db := stressDBWith(t, Options{Dir: dir, Shards: tc.created, PoolPages: 16})
		want := queryAll(t, db)
		snap := filepath.Join(t.TempDir(), "state.usnap")
		if err := db.SaveFile(snap); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		db2, err := LoadFileWith(snap, Options{Dir: dir, Shards: tc.reopened, PoolPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := db2.NumShards("color"); n != tc.want {
			t.Fatalf("created with Shards %d, reopened with %d: %d shards, want %d (manifest over Options)",
				tc.created, tc.reopened, n, tc.want)
		}
		got := queryAll(t, db2)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("Shards %d, query %d after reopen: results diverge", tc.created, i)
			}
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStaleSingleFileIgnored: a directory written before the manifest rooted
// every index may still hold a bare <name>.uidx. It is derived data — the
// index is built afresh from the store beside it, and the stale file is
// neither read nor touched.
func TestStaleSingleFileIgnored(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "color.uidx")
	junk := []byte("not an index file")
	if err := os.WriteFile(stale, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	db := stressDBWith(t, Options{Dir: dir})
	defer db.Close()
	flat := stressDB(t, 0)
	defer flat.Close()
	if got, want := queryAll(t, db), queryAll(t, flat); !reflect.DeepEqual(got, want) {
		t.Fatal("index built beside a stale single file answers differently from an in-memory one")
	}
	if _, err := os.Stat(filepath.Join(dir, "color.manifest")); err != nil {
		t.Fatalf("no manifest written: %v", err)
	}
	if raw, err := os.ReadFile(stale); err != nil || string(raw) != string(junk) {
		t.Fatalf("stale file touched: %q, %v", raw, err)
	}
}

// TestApplyBatch exercises the batched write surface directly: semantics
// identical to individual mutations, one result row per insert, planning
// errors reject the whole batch, and an execution error mid-way takes back
// the operations before it.
func TestApplyBatch(t *testing.T) {
	db, ids := paperDB(t)
	defer db.Close()
	ctx := context.Background()

	// Empty and nil batches are free no-ops.
	if res, err := db.Apply(ctx, nil); err != nil {
		t.Fatalf("nil batch: %+v, %v", res, err)
	}
	if res, err := db.Apply(ctx, &Batch{}); err != nil {
		t.Fatalf("empty batch: %+v, %v", res, err)
	}

	var b Batch
	b.Insert("Automobile", Attrs{"Name": "A1", "Color": "Teal"}).
		Insert("Truck", Attrs{"Name": "T1", "Color": "Teal"}).
		Set(ids["v5"], "Color", "Teal").
		Delete(ids["v3"])
	res, err := db.Apply(ctx, &b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OIDs) != 2 {
		t.Fatalf("batch result = %+v", res)
	}
	ms, _, err := db.Query(ctx, "color", Query{Value: Exact("Teal"), Positions: []Position{On("Vehicle")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("teal vehicles = %d, want 3", len(ms))
	}
	if ms, _, _ := db.Query(ctx, "color", Query{Value: Exact("Red")}); len(ms) != 1 {
		t.Fatalf("red vehicles after batch delete = %d, want 1", len(ms))
	}

	// Planning failures reject the batch before anything applies. The
	// self-reference case pins the documented rule that a batch cannot
	// reference its own inserts: nextOID names the object the batch's
	// insert WILL create, and planning still rejects it.
	_, nextOID := db.Store().Snapshot()
	for name, bad := range map[string]*Batch{
		"unknown class": new(Batch).Insert("Ghost", Attrs{"Color": "Never"}),
		"missing oid":   new(Batch).Insert("Truck", Attrs{"Color": "Never"}).Delete(99999),
		"self-reference": new(Batch).
			Insert("Employee", Attrs{"Age": 21}).
			Set(nextOID, "Age", 22),
		"unknown kind": {ops: []BatchOp{{Kind: BatchOpKind(9)}}},
	} {
		res, err := db.Apply(ctx, bad)
		if err == nil {
			t.Fatalf("%s: Apply = %+v, %v; want planning error with nothing applied", name, res, err)
		}
	}
	if ms, _, _ := db.Query(ctx, "color", Query{Value: Exact("Never")}); len(ms) != 0 {
		t.Fatalf("rejected batches leaked %d writes", len(ms))
	}
	if _, err := db.Apply(ctx, new(Batch).Insert("Ghost", nil)); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("unknown-class batch error = %v, want ErrUnknownClass", err)
	}

	// An execution failure mid-batch fails it whole: the operation before
	// the failing one is taken back too, and no OID is reported.
	b.Reset()
	b.Insert("Truck", Attrs{"Name": "T2", "Color": "Olive"}).
		Insert("Truck", Attrs{"NoSuchAttr": 1}).
		Insert("Truck", Attrs{"Name": "T3", "Color": "Olive"})
	res, err = db.Apply(ctx, &b)
	if err == nil {
		t.Fatal("batch with invalid attribute succeeded")
	}
	if len(res.OIDs) != 0 {
		t.Fatalf("failed batch result = %+v, want no OIDs", res)
	}
	if ms, _, _ := db.Query(ctx, "color", Query{Value: Exact("Olive")}); len(ms) != 0 {
		t.Fatalf("olive trucks = %d, want 0 (a failed batch applies nothing)", len(ms))
	}

	// A canceled context stops the batch at the next boundary.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	b.Reset()
	b.Insert("Truck", Attrs{"Color": "Umber"})
	if _, err := db.Apply(cctx, &b); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch error = %v", err)
	}

	// Only complete batches count.
	m := db.Metrics()
	if m.Batches != 1 || m.BatchOps != 4 {
		t.Fatalf("Metrics batches=%d ops=%d, want 1/4", m.Batches, m.BatchOps)
	}
}

// TestApplyBatchSharded runs batches against a sharded database and checks
// the results match issuing the same operations individually against an
// unsharded one — including the OID sequence, since both databases share the
// seeded build history.
func TestApplyBatchSharded(t *testing.T) {
	flat := stressDB(t, 0)
	defer flat.Close()
	db := stressDBWith(t, Options{Shards: 4})
	defer db.Close()
	ctx := context.Background()

	classes := []string{"Vehicle", "Automobile", "Truck", "CompactAutomobile"}
	var b Batch
	for i := 0; i < 40; i++ {
		b.Insert(classes[i%len(classes)], Attrs{"Color": "Crimson"})
	}
	res, err := db.Apply(ctx, &b)
	if err != nil {
		t.Fatalf("sharded batch: %+v, %v", res, err)
	}
	var flatOIDs []OID
	for i := 0; i < 40; i++ {
		oid, err := flat.Insert(classes[i%len(classes)], Attrs{"Color": "Crimson"})
		if err != nil {
			t.Fatal(err)
		}
		flatOIDs = append(flatOIDs, oid)
	}
	if !reflect.DeepEqual(res.OIDs, flatOIDs) {
		t.Fatalf("batched inserts assigned %v, individual inserts %v", res.OIDs, flatOIDs)
	}

	// Recolor half through a second batch on one side, individual Sets on
	// the other.
	b.Reset()
	for i, oid := range res.OIDs {
		if i%2 == 0 {
			b.Set(oid, "Color", "Indigo")
		}
	}
	if _, err := db.Apply(ctx, &b); err != nil {
		t.Fatal(err)
	}
	for i, oid := range flatOIDs {
		if i%2 == 0 {
			if err := flat.Set(oid, "Color", "Indigo"); err != nil {
				t.Fatal(err)
			}
		}
	}

	got := queryAll(t, db)
	want := queryAll(t, flat)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("query %d: batched sharded db diverges from individually-mutated flat db", i)
		}
	}
}

// TestApplyBatchDurable: a batch applied to a sharded disk layout under
// DurabilityCheckpoint is made durable by the Close checkpoint and survives a
// reopen.
func TestApplyBatchDurable(t *testing.T) {
	dir := t.TempDir()
	db := stressDBWith(t, Options{Dir: dir, Shards: 3, Durability: DurabilityCheckpoint})
	ctx := context.Background()
	var b Batch
	for i := 0; i < 10; i++ {
		b.Insert("Automobile", Attrs{"Color": "Amber"})
	}
	if _, err := db.Apply(ctx, &b); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "state.usnap")
	if err := db.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadFileWith(snap, Options{Dir: dir, Durability: DurabilityCheckpoint})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ms, _, err := db2.Query(ctx, "color", Query{Value: Exact("Amber"), Positions: []Position{On("Vehicle")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 10 {
		t.Fatalf("amber vehicles after reopen = %d, want 10", len(ms))
	}
}

// TestConcurrentShardWriters is the race-enabled cross-shard stress: one
// writer per vehicle class (each CH mutation locks a single color shard, so
// distinct classes proceed concurrently there), half batched, half
// individual, interleaved with readers. Asserts race-freedom under -race and
// exact entry accounting afterwards.
func TestConcurrentShardWriters(t *testing.T) {
	db := stressDBWith(t, Options{Shards: 4})
	defer db.Close()
	classes := []string{"Vehicle", "Automobile", "Truck", "CompactAutomobile"}
	const perWriter = 30
	ctx := context.Background()
	errs := make(chan error, len(classes)+2)

	var writers sync.WaitGroup
	for w, class := range classes {
		writers.Add(1)
		go func(w int, class string) {
			defer writers.Done()
			if w%2 == 0 { // batched writer: Apply in chunks of 5
				var b Batch
				for i := 0; i < perWriter; i++ {
					b.Insert(class, Attrs{"Color": "Wisteria"})
					if b.Len() == 5 {
						if _, err := db.Apply(ctx, &b); err != nil {
							errs <- err
							return
						}
						b.Reset()
					}
				}
				return
			}
			for i := 0; i < perWriter; i++ { // individual writer
				oid, err := db.Insert(class, Attrs{"Color": "Wisteria"})
				if err != nil {
					errs <- err
					return
				}
				if i%5 == 4 {
					if err := db.Set(oid, "Color", "Wisteria"); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w, class)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			jobs := stressQueries()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				j := jobs[(r+i)%len(jobs)]
				if _, _, err := db.Query(ctx, j.Index, j.Query, WithAlgorithm(j.Algorithm)); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}

	writers.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ms, _, err := db.Query(ctx, "color", Query{Value: Exact("Wisteria"), Positions: []Position{On("Vehicle")}})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(classes) * perWriter; len(ms) != want {
		t.Fatalf("wisteria vehicles = %d, want %d", len(ms), want)
	}
	stats, _ := db.ShardStats("color")
	var lockAcquisitions uint64
	for _, s := range stats {
		lockAcquisitions += s.Writes
	}
	if lockAcquisitions == 0 {
		t.Fatal("no shard write traffic recorded")
	}
}

// TestShardPageWriteFailAllOrNothing: a call's page-write step is
// all-or-nothing across shards. Every shard of the color group sits on its
// DiskFile, shard 2's behind a faultfs wrapper that fails its next page
// write; a batch inserting one vehicle of each class edits all four shards.
// The call returns the injected error after shards 0 and 1 wrote their
// pages, and yet no shard of either index publishes a version, every page
// the call allocated is free again, and the store and the log are as before.
func TestShardPageWriteFailAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	opts := walOpts(dir)
	opts.PoolPages, opts.Shards = 0, 4 // tree pages go straight to the files
	db := stressDBWith(t, opts)
	defer db.Close()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g := db.groups["color"]
	spec := g.sharded.Prototype().Spec()
	codes, err := core.ShardCodes(db.st, spec)
	if err != nil {
		t.Fatal(err)
	}
	files := make([]pager.File, len(g.files))
	metas := make([]pager.PageID, len(g.files))
	for i, df := range g.files {
		files[i], metas[i] = df, g.sharded.Shard(i).MetaPage()
	}
	faulty := faultfs.Wrap(g.files[2])
	files[2] = faulty
	if g.sharded, err = core.NewSharded(db.st, spec, core.NewShardMap(codes, len(files)), files, metas); err != nil {
		t.Fatal(err)
	}

	var b Batch
	for _, class := range []string{"Vehicle", "Automobile", "Truck", "CompactAutomobile"} {
		b.Insert(class, Attrs{"Color": "Umber", "ManufacturedBy": OID(61)})
	}
	state := func() string {
		objs, next := db.Store().Snapshot()
		s := fmt.Sprintf("next=%d objects=%d log=%d epochs=%v\n", next, len(objs), db.wal.log.LiveBytes(), shardEpochs(db))
		for _, name := range db.Indexes() {
			s += fmt.Sprintf("%s %v\n", name, dumpIndexKeys(t, db, name))
		}
		return s
	}
	before := state()
	stats := func() []pager.Stats {
		out := make([]pager.Stats, len(g.files))
		for i, df := range g.files {
			out[i] = df.Stats()
		}
		return out
	}
	pages := make([]int, len(g.files))
	for i, df := range g.files {
		pages[i] = df.NumPages()
	}
	s0 := stats()
	faulty.FailNth(faultfs.OpWrite, 1, nil)
	if _, err := db.Apply(context.Background(), &b); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Apply = %v, want the injected page-write failure", err)
	}
	s1 := stats()
	for i, df := range g.files {
		allocs, frees := s1[i].Allocs-s0[i].Allocs, s1[i].Frees-s0[i].Frees
		if allocs == 0 || frees != allocs || df.NumPages() != pages[i] {
			t.Errorf("shard %d: the call allocated %d pages and freed %d; %d pages in use, want %d",
				i, allocs, frees, df.NumPages(), pages[i])
		}
	}
	if after := state(); after != before {
		t.Fatalf("failed page writes changed the database:\nbefore %s\nafter  %s", before, after)
	}
	if _, err := db.Apply(context.Background(), &b); err != nil {
		t.Fatalf("Apply after the fault: %v", err)
	}
	if ms, _, err := db.Query(context.Background(), "color", Query{Value: Exact("Umber")}); err != nil || len(ms) != 4 {
		t.Fatalf("umber vehicles = %d, %v; want 4", len(ms), err)
	}
}
