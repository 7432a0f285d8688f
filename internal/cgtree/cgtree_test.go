package cgtree

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/encoding"
	"repro/internal/pager"
)

func key8(v uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, v)
}

// buildTree loads nObjects uniformly over nSets and nKeys distinct keys.
func buildTree(t *testing.T, nObjects, nSets, nKeys int, seed int64) *Tree {
	t.Helper()
	tr, err := New(pager.NewMemFile(1024), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Entry, nObjects)
	for i := range entries {
		entries[i] = Entry{
			Set: SetID(rng.Intn(nSets)),
			Key: key8(uint64(rng.Intn(nKeys))),
			OID: encoding.OID(i + 1),
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a := entryKey(entries[i].Set, entries[i].Key, entries[i].OID)
		b := entryKey(entries[j].Set, entries[j].Key, entries[j].OID)
		return string(a) < string(b)
	})
	if err := tr.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestInsertExactMatch(t *testing.T) {
	tr, err := New(pager.NewMemFile(1024), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tr.Insert(SetID(i%4), key8(uint64(i%10)), encoding.OID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Key 3 in set 3: objects i with i%10==3 and i%4==3 -> i in {3, 23, 43, 63, 83}.
	res, stats, err := tr.ExactMatch(key8(3), []SetID{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("ExactMatch returned %d results: %v", len(res), res)
	}
	for _, r := range res {
		if r.Set != 3 || (int(r.OID)-1)%10 != 3 {
			t.Fatalf("bad result %+v", r)
		}
	}
	if stats.Matches != 5 || stats.PagesRead == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// Multiple sets accumulate.
	res, _, err = tr.ExactMatch(key8(3), []SetID{0, 1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 { // all i%10==3: 10 objects
		t.Fatalf("multi-set exact match returned %d", len(res))
	}
}

func TestDelete(t *testing.T) {
	tr, err := New(pager.NewMemFile(1024), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, key8(5), 42); err != nil {
		t.Fatal(err)
	}
	ok, err := tr.Delete(1, key8(5), 42)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	ok, err = tr.Delete(1, key8(5), 42)
	if err != nil || ok {
		t.Fatalf("second Delete = %v, %v", ok, err)
	}
	res, _, err := tr.ExactMatch(key8(5), []SetID{1}, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("deleted entry still found: %v", res)
	}
}

func TestRangeQuery(t *testing.T) {
	tr := buildTree(t, 4000, 8, 100, 1)
	res, stats, err := tr.RangeQuery(key8(10), key8(19), []SetID{2, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Expectation: ~4000 * (10/100) * (2/8) = 100 results.
	if len(res) < 60 || len(res) > 140 {
		t.Fatalf("range query returned %d results", len(res))
	}
	for _, r := range res {
		if r.Set != 2 && r.Set != 5 {
			t.Fatalf("result from unqueried set: %+v", r)
		}
	}
	if stats.PagesRead == 0 || stats.Matches != len(res) {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestSetGroupingShape verifies the CG-tree's defining cost behaviours
// against the paper's description:
//  1. exact-match cost grows with the number of queried sets (per-set
//     descents);
//  2. a range query on ONE set costs close to that set's data only, far
//     below scanning the whole range across sets.
func TestSetGroupingShape(t *testing.T) {
	tr := buildTree(t, 30000, 40, 1000, 2)

	// (1) exact match: 1 set vs 40 sets.
	tr1 := pager.NewTracker()
	if _, _, err := tr.ExactMatch(key8(500), []SetID{7}, tr1); err != nil {
		t.Fatal(err)
	}
	tr40 := pager.NewTracker()
	sets := make([]SetID, 40)
	for i := range sets {
		sets[i] = SetID(i)
	}
	if _, _, err := tr.ExactMatch(key8(500), sets, tr40); err != nil {
		t.Fatal(err)
	}
	if tr40.Reads() < 3*tr1.Reads() {
		t.Fatalf("exact match cost flat in #sets: 1 set %d pages, 40 sets %d", tr1.Reads(), tr40.Reads())
	}

	// (2) 10%-range on one set vs on all sets: per-set clustering means
	// one set costs roughly 1/40th of the data pages (plus a descent).
	one := pager.NewTracker()
	if _, _, err := tr.RangeQuery(key8(100), key8(199), []SetID{7}, one); err != nil {
		t.Fatal(err)
	}
	all := pager.NewTracker()
	if _, _, err := tr.RangeQuery(key8(100), key8(199), sets, all); err != nil {
		t.Fatal(err)
	}
	if one.Reads()*8 > all.Reads() {
		t.Fatalf("range on 1 set (%d pages) not much cheaper than on 40 (%d)", one.Reads(), all.Reads())
	}
}

func TestRangeBoundsValidation(t *testing.T) {
	tr := buildTree(t, 100, 4, 10, 3)
	if _, _, err := tr.RangeQuery(key8(1), []byte("short"), []SetID{1}, nil); err == nil {
		t.Error("mismatched bounds accepted")
	}
}

func TestPageAccounting(t *testing.T) {
	tr := buildTree(t, 5000, 8, 100, 4)
	pages, err := tr.PageCount()
	if err != nil {
		t.Fatal(err)
	}
	if pages == 0 || tr.Height() < 2 {
		t.Fatalf("pages=%d height=%d", pages, tr.Height())
	}
	tr.DropCache()
	// After a cache drop, results are identical.
	a, _, err := tr.ExactMatch(key8(50), []SetID{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.DropCache()
	b, _, err := tr.ExactMatch(key8(50), []SetID{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("results differ after cache drop: %d vs %d", len(a), len(b))
	}
}
