package htree

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/encoding"
	"repro/internal/pager"
)

func key8(v uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, v)
}

func buildForest(t *testing.T, nObjects, nSets, nKeys int, seed int64) *Forest {
	t.Helper()
	h := New(pager.NewMemFile(1024), Config{})
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Entry, nObjects)
	for i := range entries {
		entries[i] = Entry{
			Set: SetID(rng.Intn(nSets)),
			Key: key8(uint64(rng.Intn(nKeys))),
			OID: encoding.OID(i + 1),
		}
	}
	if err := h.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestInsertExactDelete(t *testing.T) {
	h := New(pager.NewMemFile(1024), Config{})
	for i := 0; i < 100; i++ {
		if err := h.Insert(SetID(i%4), key8(uint64(i%10)), encoding.OID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 100 {
		t.Fatalf("Len = %d", h.Len())
	}
	res, stats, err := h.ExactMatch(key8(3), []SetID{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("ExactMatch = %v", res)
	}
	if stats.PagesRead == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	ok, err := h.Delete(3, key8(3), res[0].OID)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if ok, _ := h.Delete(3, key8(3), res[0].OID); ok {
		t.Fatal("double delete reported true")
	}
	if ok, _ := h.Delete(9, key8(3), 1); ok {
		t.Fatal("delete from absent set reported true")
	}
	res, _, _ = h.ExactMatch(key8(3), []SetID{3}, nil)
	if len(res) != 4 {
		t.Fatalf("after delete: %d", len(res))
	}
}

func TestRangeQuery(t *testing.T) {
	h := buildForest(t, 4000, 8, 100, 1)
	res, _, err := h.RangeQuery(key8(10), key8(19), []SetID{2, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 60 || len(res) > 140 {
		t.Fatalf("range returned %d", len(res))
	}
	for _, r := range res {
		if r.Set != 2 && r.Set != 5 {
			t.Fatalf("unqueried set: %+v", r)
		}
	}
	if _, _, err := h.RangeQuery(key8(1), []byte("xx"), []SetID{1}, nil); err == nil {
		t.Error("mismatched bounds accepted")
	}
}

// TestCostProportionalToSets is the paper's characterization: "retrieval
// costs are directly proportional to the number of sets queried".
func TestCostProportionalToSets(t *testing.T) {
	h := buildForest(t, 30000, 40, 1000, 2)
	cost := func(n int) int {
		sets := make([]SetID, n)
		for i := range sets {
			sets[i] = SetID(i)
		}
		tr := pager.NewTracker()
		if _, _, err := h.ExactMatch(key8(500), sets, tr); err != nil {
			t.Fatal(err)
		}
		return tr.Reads()
	}
	c1, c10, c40 := cost(1), cost(10), cost(40)
	if !(c1 < c10 && c10 < c40) {
		t.Fatalf("costs not increasing: %d, %d, %d", c1, c10, c40)
	}
	// Roughly linear: 40 sets should cost at least 10x one set.
	if c40 < 10*c1 {
		t.Fatalf("cost not proportional: 1 set %d, 40 sets %d", c1, c40)
	}
	// And ranges on one set are perfectly clustered.
	one := pager.NewTracker()
	if _, _, err := h.RangeQuery(key8(100), key8(199), []SetID{7}, one); err != nil {
		t.Fatal(err)
	}
	pages, err := h.PageCount()
	if err != nil {
		t.Fatal(err)
	}
	if one.Reads() > pages/20 {
		t.Fatalf("single-set range read %d of %d pages", one.Reads(), pages)
	}
}

func TestEmptyForest(t *testing.T) {
	h := New(pager.NewMemFile(1024), Config{})
	res, _, err := h.ExactMatch(key8(1), []SetID{0, 1}, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty forest query = %v, %v", res, err)
	}
	if n, err := h.PageCount(); err != nil || n != 0 {
		t.Fatalf("PageCount = %d, %v", n, err)
	}
	h.DropCache()
}
