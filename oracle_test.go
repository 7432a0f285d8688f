package uindex

// Randomized oracle test: drive the whole stack (facade -> core -> btree ->
// pager) with random mutations and random queries, and check every query
// result — under BOTH retrieval algorithms — against a brute-force
// evaluation over the object store. This is the end-to-end counterpart of
// the per-package property tests.
//
// There is one write pipeline, so one generated history must mean the same
// thing however it reaches it: the history runs in every cell of {1, 4
// shards} x {in-memory, DurabilityCheckpoint, DurabilityWAL}, once through
// Insert/Set/Delete and once through Apply batches, and every run must
// produce the same match lists, byte for byte, and the same op counters —
// the disk cells once more after closing and reopening the directory.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

type oracleWorld struct {
	t         *testing.T
	db        *Database
	rng       *rand.Rand
	employees []OID
	companies []OID
	vehicles  []OID
	colors    []string

	// batched routes mutations through Apply in batches of up to
	// oracleBatchOps instead of through Insert/Set/Delete. next is the OID
	// the next insert will be assigned (the store numbers from 1), which
	// lets a batch name its own inserts in later reference attributes;
	// pending are the OIDs the open batch is expected to assign.
	batched bool
	batch   Batch
	next    OID
	pending []OID

	// transcript accumulates every checked match list, for comparison
	// across runs; rebuilds numbers the throwaway consistency indexes.
	transcript strings.Builder
	rebuilds   int
}

const oracleBatchOps = 16

func newOracleWorld(t *testing.T, seed int64, opts Options, batched bool) *oracleWorld {
	t.Helper()
	s := NewSchema()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddClass("Employee", "", Attr{Name: "Age", Type: Uint64}))
	must(s.AddClass("Company", "", Attr{Name: "President", Ref: "Employee"}))
	must(s.AddClass("AutoCompany", "Company"))
	must(s.AddClass("Vehicle", "",
		Attr{Name: "Color", Type: String},
		Attr{Name: "ManufacturedBy", Ref: "Company"}))
	must(s.AddClass("Automobile", "Vehicle"))
	must(s.AddClass("CompactAutomobile", "Automobile"))
	must(s.AddClass("Truck", "Vehicle"))
	db, err := NewDatabaseWith(s, opts)
	must(err)
	must(db.CreateIndex(IndexSpec{Name: "color", Root: "Vehicle", Attr: "Color"}))
	must(db.CreateIndex(IndexSpec{
		Name: "age", Root: "Vehicle", Refs: []string{"ManufacturedBy", "President"}, Attr: "Age"}))
	return &oracleWorld{
		t: t, db: db, rng: rand.New(rand.NewSource(seed)),
		colors:  []string{"Red", "Blue", "Green", "White"},
		batched: batched, next: 1,
	}
}

// insert, set and del issue one mutation of the history through the run's
// route and return as soon as it is issued (batched) or applied (direct).
func (w *oracleWorld) insert(class string, attrs Attrs) OID {
	w.t.Helper()
	oid := w.next
	w.next++
	if !w.batched {
		got, err := w.db.Insert(class, attrs)
		if err != nil || got != oid {
			w.t.Fatalf("Insert(%s) = %d, %v; want oid %d", class, got, err, oid)
		}
		return oid
	}
	w.batch.Insert(class, attrs)
	w.pending = append(w.pending, oid)
	w.flushAt(oracleBatchOps)
	return oid
}

func (w *oracleWorld) set(oid OID, attr string, v any) {
	w.t.Helper()
	if !w.batched {
		if err := w.db.Set(oid, attr, v); err != nil {
			w.t.Fatal(err)
		}
		return
	}
	w.flushIfPending(oid)
	w.batch.Set(oid, attr, v)
	w.flushAt(oracleBatchOps)
}

func (w *oracleWorld) del(oid OID) {
	w.t.Helper()
	if !w.batched {
		if err := w.db.Delete(oid); err != nil {
			w.t.Fatal(err)
		}
		return
	}
	w.flushIfPending(oid)
	w.batch.Delete(oid)
	w.flushAt(oracleBatchOps)
}

// flushIfPending applies the open batch when oid is one of its own inserts:
// a batch's Set and Delete operations must name objects that already exist.
func (w *oracleWorld) flushIfPending(oid OID) {
	w.t.Helper()
	if len(w.pending) > 0 && oid >= w.pending[0] {
		w.flushAt(0)
	}
}

// flushAt applies the open batch once it holds at least n operations (and is
// not empty), checking that its inserts received the predicted OIDs.
func (w *oracleWorld) flushAt(n int) {
	w.t.Helper()
	if w.batch.Len() == 0 || w.batch.Len() < n {
		return
	}
	res, err := w.db.Apply(context.Background(), &w.batch)
	if err != nil || res.Applied != w.batch.Len() {
		w.t.Fatalf("Apply = %+v, %v; want %d applied", res, err, w.batch.Len())
	}
	if fmt.Sprint(res.OIDs) != fmt.Sprint(w.pending) {
		w.t.Fatalf("Apply assigned %v, predicted %v", res.OIDs, w.pending)
	}
	w.batch.Reset()
	w.pending = w.pending[:0]
}

func (w *oracleWorld) step() {
	switch op := w.rng.Intn(20); {
	case op < 3 || len(w.employees) == 0: // new employee
		w.employees = append(w.employees, w.insert("Employee", Attrs{"Age": 30 + w.rng.Intn(8)}))
	case op < 6 || len(w.companies) == 0: // new company
		class := []string{"Company", "AutoCompany"}[w.rng.Intn(2)]
		w.companies = append(w.companies, w.insert(class, Attrs{"President": w.pick(w.employees)}))
	case op < 13: // new vehicle
		class := []string{"Vehicle", "Automobile", "CompactAutomobile", "Truck"}[w.rng.Intn(4)]
		w.vehicles = append(w.vehicles, w.insert(class, Attrs{
			"Color":          w.colors[w.rng.Intn(len(w.colors))],
			"ManufacturedBy": w.pick(w.companies)}))
	case op < 15 && len(w.vehicles) > 0: // recolor a vehicle
		w.set(w.pick(w.vehicles), "Color", w.colors[w.rng.Intn(len(w.colors))])
	case op < 17 && len(w.companies) > 0: // president switch
		w.set(w.pick(w.companies), "President", w.pick(w.employees))
	case op < 18 && len(w.employees) > 0: // age change
		w.set(w.pick(w.employees), "Age", 30+w.rng.Intn(8))
	case len(w.vehicles) > 0: // delete a vehicle
		i := w.rng.Intn(len(w.vehicles))
		w.del(w.vehicles[i])
		w.vehicles = append(w.vehicles[:i], w.vehicles[i+1:]...)
	}
}

func (w *oracleWorld) pick(s []OID) OID { return s[w.rng.Intn(len(s))] }

// bruteChains enumerates (vehicle, company, employee) chains from the store.
func (w *oracleWorld) bruteChains() [][3]OID {
	var out [][3]OID
	st := w.db.Store()
	for _, v := range st.HierarchyExtent("Vehicle") {
		c, ok := st.Deref(v, "ManufacturedBy")
		if !ok {
			continue
		}
		e, ok := st.Deref(c, "President")
		if !ok {
			continue
		}
		out = append(out, [3]OID{v, c, e})
	}
	return out
}

// checkColorQuery compares a color-index query against brute force.
func (w *oracleWorld) checkColorQuery() {
	w.t.Helper()
	classes := []string{"Vehicle", "Automobile", "CompactAutomobile", "Truck"}
	class := classes[w.rng.Intn(len(classes))]
	subtree := w.rng.Intn(2) == 0
	color := w.colors[w.rng.Intn(len(w.colors))]
	q := Query{Value: Exact(color), Positions: []Position{{Alts: []ClassPattern{{Class: class, Subtree: subtree}}}}}

	want := map[OID]bool{}
	st := w.db.Store()
	sch := w.db.Schema()
	for _, v := range st.HierarchyExtent("Vehicle") {
		o, _ := st.Get(v)
		if subtree {
			if !sch.IsSubclassOf(o.Class, class) {
				continue
			}
		} else if o.Class != class {
			continue
		}
		if c, ok := o.Attr("Color"); ok && c == color {
			want[v] = true
		}
	}
	for _, alg := range []Algorithm{Parallel, Forward} {
		ms, _, err := w.db.Query(context.Background(), "color", q, WithAlgorithm(alg))
		if err != nil {
			w.t.Fatal(err)
		}
		fmt.Fprintf(&w.transcript, "color %v %v\n", alg, ms)
		got := map[OID]bool{}
		for _, m := range ms {
			got[m.Path[0].OID] = true
		}
		if len(got) != len(want) {
			w.t.Fatalf("%v color query (%s,%s,subtree=%v): got %d, want %d",
				alg, color, class, subtree, len(got), len(want))
		}
		for v := range want {
			if !got[v] {
				w.t.Fatalf("%v color query missing vehicle %d", alg, v)
			}
		}
	}
}

// checkAgeQuery compares a path-index query against brute force, including
// mid-path restrictions and distinct prefixes.
func (w *oracleWorld) checkAgeQuery() {
	w.t.Helper()
	lo := uint64(30 + w.rng.Intn(8))
	hi := lo + uint64(w.rng.Intn(4))
	q := Query{Value: Range(lo, hi)}
	var restrictCo OID
	if len(w.companies) > 0 && w.rng.Intn(2) == 0 {
		restrictCo = w.pick(w.companies)
		q.Positions = []Position{Any, OnObjects("Company", restrictCo)}
	}
	distinct := w.rng.Intn(3) == 0
	if distinct {
		q.Distinct = 2
	}

	st := w.db.Store()
	type prefix struct{ e, c OID }
	wantFull := map[[3]OID]bool{}
	wantDistinct := map[prefix]bool{}
	for _, ch := range w.bruteChains() {
		if restrictCo != 0 && ch[1] != restrictCo {
			continue
		}
		o, _ := st.Get(ch[2])
		ageAny, ok := o.Attr("Age")
		if !ok {
			continue
		}
		age := uint64(ageAny.(int))
		if age < lo || age > hi {
			continue
		}
		wantFull[ch] = true
		wantDistinct[prefix{ch[2], ch[1]}] = true
	}
	for _, alg := range []Algorithm{Parallel, Forward} {
		ms, _, err := w.db.Query(context.Background(), "age", q, WithAlgorithm(alg))
		if err != nil {
			w.t.Fatal(err)
		}
		fmt.Fprintf(&w.transcript, "age %v %v\n", alg, ms)
		if distinct {
			got := map[prefix]bool{}
			for _, m := range ms {
				got[prefix{m.Path[0].OID, m.Path[1].OID}] = true
			}
			if fmt.Sprint(len(got)) != fmt.Sprint(len(wantDistinct)) {
				w.t.Fatalf("%v distinct age query [%d,%d] co=%d: got %d prefixes, want %d",
					alg, lo, hi, restrictCo, len(got), len(wantDistinct))
			}
			for p := range wantDistinct {
				if !got[p] {
					w.t.Fatalf("%v distinct age query missing prefix %+v", alg, p)
				}
			}
			continue
		}
		got := map[[3]OID]bool{}
		for _, m := range ms {
			got[[3]OID{m.Path[2].OID, m.Path[1].OID, m.Path[0].OID}] = true
		}
		if len(got) != len(wantFull) {
			w.t.Fatalf("%v age query [%d,%d] co=%d: got %d chains, want %d",
				alg, lo, hi, restrictCo, len(got), len(wantFull))
		}
		for ch := range wantFull {
			if !got[ch] {
				w.t.Fatalf("%v age query missing chain %v", alg, ch)
			}
		}
	}
}

// indexLen totals an index's entries over its shards.
func (w *oracleWorld) indexLen(name string) int {
	w.t.Helper()
	stats, ok := w.db.ShardStats(name)
	if !ok {
		w.t.Fatalf("no index %q", name)
	}
	n := 0
	for _, s := range stats {
		n += s.Entries
	}
	return n
}

// checkIndexConsistency rebuilds both indexes from scratch and compares
// entry counts against the incrementally maintained ones. Each rebuild gets a
// fresh name: a dropped disk-backed index leaves its files behind, and a
// later CreateIndex under the same name would reattach them, not rebuild.
func (w *oracleWorld) checkIndexConsistency() {
	w.t.Helper()
	for _, name := range w.db.Indexes() {
		ix, _ := w.db.Index(name)
		spec := ix.Spec()
		w.rebuilds++
		spec.Name = fmt.Sprintf("%s-rebuild%d", name, w.rebuilds)
		if err := w.db.CreateIndex(spec); err != nil {
			w.t.Fatal(err)
		}
		rebuilt := w.indexLen(spec.Name)
		if err := w.db.DropIndex(spec.Name); err != nil {
			w.t.Fatal(err)
		}
		if got := w.indexLen(name); rebuilt != got {
			w.t.Fatalf("index %q: incremental %d entries, rebuild %d", name, got, rebuilt)
		}
	}
}

// check flushes the open batch and runs one round of oracle checks.
func (w *oracleWorld) check(consistency bool) {
	w.t.Helper()
	w.flushAt(0)
	w.checkColorQuery()
	w.checkAgeQuery()
	if consistency {
		w.checkIndexConsistency()
	}
}

// opCounters is the part of Metrics both routes must agree on.
func opCounters(m Metrics) [4]uint64 {
	return [4]uint64{m.Inserts, m.Sets, m.Deletes, m.WriteErrors}
}

// runOracleHistory applies one seeded history in one cell through one route
// and returns the transcript of every checked match list plus the op
// counters. Disk cells end with a close and a reopen — Open under the WAL,
// SaveFile + LoadFileWith under checkpoints — and one more round of checks
// against the reopened database.
func runOracleHistory(t *testing.T, seed int64, opts Options, disk, batched bool) (string, [4]uint64) {
	t.Helper()
	if disk {
		opts.Dir = t.TempDir()
	}
	w := newOracleWorld(t, seed, opts, batched)
	defer func() { w.db.Close() }()
	for round := 0; round < 12; round++ {
		for i := 0; i < 60; i++ {
			w.step()
		}
		w.check(round%4 == 3)
	}
	// Final invariant check on the underlying trees.
	for _, name := range w.db.Indexes() {
		g := w.db.groups[name]
		for i := 0; i < g.sharded.NumShards(); i++ {
			if err := g.sharded.Shard(i).Tree().Check(); err != nil {
				t.Fatalf("index %q shard %d tree invariants: %v", name, i, err)
			}
		}
	}
	m := w.db.Metrics()
	if (m.Batches > 0) != batched {
		t.Fatalf("batched=%v run counted %d batches", batched, m.Batches)
	}
	counters := opCounters(m)

	if disk {
		// Both ways back into the one disk layout: recovery under the WAL,
		// snapshot + reattach under checkpoints.
		snap := filepath.Join(t.TempDir(), "state.usnap")
		if opts.Durability != DurabilityWAL {
			if err := w.db.SaveFile(snap); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.db.Close(); err != nil {
			t.Fatal(err)
		}
		var db *Database
		var err error
		if opts.Durability == DurabilityWAL {
			db, err = Open(opts.Dir, opts)
		} else {
			db, err = LoadFileWith(snap, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		w.db = db
		w.check(true)
	}

	// Drain: delete every vehicle and confirm the indexes empty.
	vehicles := append([]OID(nil), w.vehicles...)
	sort.Slice(vehicles, func(i, j int) bool { return vehicles[i] < vehicles[j] })
	for _, v := range vehicles {
		w.del(v)
	}
	w.flushAt(0)
	for _, name := range w.db.Indexes() {
		if n := w.indexLen(name); n != 0 {
			t.Fatalf("index %q has %d entries after deleting every vehicle", name, n)
		}
	}
	return w.transcript.String(), counters
}

func TestOracleRandomizedWorkload(t *testing.T) {
	type cell struct {
		name   string
		shards int
		disk   bool
		dur    Durability
	}
	var cells []cell
	for _, shards := range []int{1, 4} {
		cells = append(cells,
			cell{fmt.Sprintf("shards%d/memory", shards), shards, false, DurabilityCheckpoint},
			cell{fmt.Sprintf("shards%d/checkpoint", shards), shards, true, DurabilityCheckpoint},
			cell{fmt.Sprintf("shards%d/wal", shards), shards, true, DurabilityWAL})
	}
	for _, seed := range []int64{1, 2, 3} {
		// Every run of one seed must reproduce the first run's transcript:
		// results depend on the history, never on the cell or the route.
		var want string
		for _, c := range cells {
			t.Run(fmt.Sprintf("seed%d/%s", seed, c.name), func(t *testing.T) {
				opts := Options{Shards: c.shards, Durability: c.dur, PoolPages: 16, WALCheckpointBytes: 16 << 10}
				direct, dctr := runOracleHistory(t, seed, opts, c.disk, false)
				batched, bctr := runOracleHistory(t, seed, opts, c.disk, true)
				if direct != batched {
					t.Fatal("Insert/Set/Delete and Apply runs of one history returned different match lists")
				}
				if dctr != bctr {
					t.Fatalf("op counters differ: direct %v, batched %v", dctr, bctr)
				}
				// Disk cells check one extra round after reopening: compare on
				// the common prefix and keep the longer transcript, so those
				// rounds are held against each other too.
				if !strings.HasPrefix(direct, want) && !strings.HasPrefix(want, direct) {
					t.Fatal("match lists differ from the earlier cells'")
				}
				if len(direct) > len(want) {
					want = direct
				}
			})
		}
	}
}
