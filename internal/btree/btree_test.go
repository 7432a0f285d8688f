package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/pager"
)

func newTree(t *testing.T, pageSize int, cfg Config) *Tree {
	t.Helper()
	f := pager.NewMemFile(pageSize)
	tr, err := Create(f, cfg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return tr
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("val-%d", i)) }

// TestCommonPrefix checks the word-at-a-time prefix length against a byte
// loop, with the first difference at every offset around the 8-byte strides.
func TestCommonPrefix(t *testing.T) {
	for n := 0; n <= 20; n++ {
		a := bytes.Repeat([]byte{0xA5}, n)
		for d := 0; d <= n; d++ {
			b := append([]byte(nil), a...)
			if d < n {
				b[d] ^= 0x01
			}
			for _, bl := range []int{n, d} {
				if got := commonPrefix(a, b[:bl]); got != d {
					t.Fatalf("commonPrefix(len %d, len %d differing at %d) = %d", n, bl, d, got)
				}
			}
		}
	}
}

func TestInsertGet(t *testing.T) {
	for _, cfg := range []Config{{}, {MaxEntries: 4}, {MaxEntries: 10}} {
		t.Run(fmt.Sprintf("cfg%+v", cfg), func(t *testing.T) {
			tr := newTree(t, 256, cfg)
			const n = 500
			perm := rand.New(rand.NewSource(1)).Perm(n)
			for _, i := range perm {
				if err := tr.Insert(key(i), val(i)); err != nil {
					t.Fatalf("Insert(%d): %v", i, err)
				}
			}
			if tr.Len() != n {
				t.Fatalf("Len = %d, want %d", tr.Len(), n)
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("Check: %v", err)
			}
			for i := 0; i < n; i++ {
				v, ok, err := tr.Get(key(i), nil)
				if err != nil || !ok {
					t.Fatalf("Get(%d) = %v, %v", i, ok, err)
				}
				if !bytes.Equal(v, val(i)) {
					t.Fatalf("Get(%d) = %q, want %q", i, v, val(i))
				}
			}
			if _, ok, _ := tr.Get([]byte("nope"), nil); ok {
				t.Fatal("Get of absent key returned ok")
			}
		})
	}
}

func TestInsertReplace(t *testing.T) {
	tr := newTree(t, 256, Config{})
	if err := tr.Insert([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace, want 1", tr.Len())
	}
	v, ok, _ := tr.Get([]byte("k"), nil)
	if !ok || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("Get = %q, %v", v, ok)
	}
}

func TestInsertValidation(t *testing.T) {
	tr := newTree(t, 256, Config{})
	if err := tr.Insert(nil, []byte("v")); err == nil {
		t.Error("Insert(empty key) succeeded")
	}
	if err := tr.Insert(bytes.Repeat([]byte("x"), 1000), nil); err == nil {
		t.Error("Insert(huge key) succeeded")
	}
	if _, err := Create(pager.NewMemFile(256), Config{MaxEntries: 1}); err == nil {
		t.Error("Create with MaxEntries=1 succeeded")
	}
}

func TestDelete(t *testing.T) {
	for _, cfg := range []Config{{}, {MaxEntries: 4}, {MaxEntries: 10}} {
		t.Run(fmt.Sprintf("cfg%+v", cfg), func(t *testing.T) {
			tr := newTree(t, 256, cfg)
			const n = 400
			for i := 0; i < n; i++ {
				if err := tr.Insert(key(i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			perm := rand.New(rand.NewSource(2)).Perm(n)
			for step, i := range perm {
				ok, err := tr.Delete(key(i))
				if err != nil || !ok {
					t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
				}
				if step%37 == 0 {
					if err := tr.Check(); err != nil {
						t.Fatalf("Check after %d deletes: %v", step+1, err)
					}
				}
			}
			if tr.Len() != 0 {
				t.Fatalf("Len = %d after deleting everything", tr.Len())
			}
			if tr.Height() != 1 {
				t.Fatalf("Height = %d after deleting everything, want 1", tr.Height())
			}
			if ok, _ := tr.Delete(key(0)); ok {
				t.Fatal("Delete of absent key returned true")
			}
		})
	}
}

// TestRandomizedModel runs a long random op sequence against a reference
// map, checking Check() and full contents periodically.
func TestRandomizedModel(t *testing.T) {
	for _, cfg := range []Config{{}, {MaxEntries: 5}} {
		cfg := cfg
		t.Run(fmt.Sprintf("cfg%+v", cfg), func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			tr := newTree(t, 128, cfg)
			model := map[string]string{}
			keyOf := func() []byte {
				// Small key space to force collisions and deletes of
				// present keys; variable length to stress compression.
				return []byte(fmt.Sprintf("k%0*d", 1+rng.Intn(12), rng.Intn(300)))
			}
			for op := 0; op < 4000; op++ {
				k := keyOf()
				switch rng.Intn(3) {
				case 0, 1:
					v := []byte(fmt.Sprintf("v%d", rng.Intn(1000)))
					if err := tr.Insert(k, v); err != nil {
						t.Fatalf("op %d Insert: %v", op, err)
					}
					model[string(k)] = string(v)
				case 2:
					ok, err := tr.Delete(k)
					if err != nil {
						t.Fatalf("op %d Delete: %v", op, err)
					}
					_, inModel := model[string(k)]
					if ok != inModel {
						t.Fatalf("op %d Delete(%q) = %v, model has %v", op, k, ok, inModel)
					}
					delete(model, string(k))
				}
				if op%500 == 499 {
					if err := tr.Check(); err != nil {
						t.Fatalf("op %d Check: %v", op, err)
					}
					compareToModel(t, tr, model)
				}
			}
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
			compareToModel(t, tr, model)
		})
	}
}

func compareToModel(t *testing.T, tr *Tree, model map[string]string) {
	t.Helper()
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", tr.Len(), len(model))
	}
	got := map[string]string{}
	err := tr.Scan(nil, nil, nil, nil, func(k, v []byte) ([]byte, bool, error) {
		got[string(k)] = string(v)
		return nil, false, nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != len(model) {
		t.Fatalf("Scan yielded %d entries, model has %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("model[%q] = %q, tree has %q", k, v, got[k])
		}
	}
}

// TestSerializationRoundTrip flushes, drops the cache and re-reads
// everything, exercising encode/decode of every node.
func TestSerializationRoundTrip(t *testing.T) {
	tr := newTree(t, 256, Config{})
	const n = 1000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.DropCache(); err != nil {
		t.Fatalf("DropCache: %v", err)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("Check after reload: %v", err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := tr.Get(key(i), nil)
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) after reload = %q, %v, %v", i, v, ok, err)
		}
	}
}

func TestOpenPersistedTree(t *testing.T) {
	f := pager.NewMemFile(256)
	tr, err := Create(f, Config{MaxEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	meta := tr.MetaPage()

	re, err := Open(f, meta)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if re.Len() != 300 {
		t.Fatalf("reopened Len = %d", re.Len())
	}
	if re.cfg.MaxEntries != 6 {
		t.Fatalf("reopened MaxEntries = %d", re.cfg.MaxEntries)
	}
	if err := re.Check(); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := re.Get(key(123), nil)
	if !ok || !bytes.Equal(v, val(123)) {
		t.Fatalf("reopened Get = %q, %v", v, ok)
	}
	if _, err := Open(f, tr.cur.Load().root); err == nil {
		t.Error("Open on a non-meta page succeeded")
	}
}

func TestScanRange(t *testing.T) {
	tr := newTree(t, 256, Config{})
	for i := 0; i < 500; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err := tr.Scan(nil, key(100), key(110), nil, func(k, v []byte) ([]byte, bool, error) {
		got = append(got, string(k))
		return nil, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("Scan returned %d keys, want 10: %v", len(got), got)
	}
	for i, k := range got {
		if k != string(key(100+i)) {
			t.Fatalf("Scan[%d] = %q", i, k)
		}
	}
	// Early stop.
	count := 0
	err = tr.Scan(nil, nil, nil, nil, func(k, v []byte) ([]byte, bool, error) {
		count++
		return nil, count == 7, nil
	})
	if err != nil || count != 7 {
		t.Fatalf("early stop scan: count=%d err=%v", count, err)
	}
}

func TestScanCountsPages(t *testing.T) {
	tr := newTree(t, 256, Config{})
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A full scan must touch at least every leaf.
	trk := pager.NewTracker()
	n := 0
	if err := tr.Scan(nil, nil, nil, trk, func(k, v []byte) ([]byte, bool, error) {
		n++
		return nil, false, nil
	}); err != nil {
		t.Fatal(err)
	}
	pages, err := tr.PageCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("scanned %d entries", n)
	}
	if trk.Reads() < pages/2 {
		t.Fatalf("full scan read %d pages of %d", trk.Reads(), pages)
	}
	// A point lookup touches exactly height pages.
	trk2 := pager.NewTracker()
	if _, ok, _ := tr.Get(key(1234), trk2); !ok {
		t.Fatal("Get failed")
	}
	if trk2.Reads() != tr.Height() {
		t.Fatalf("point lookup read %d pages, height is %d", trk2.Reads(), tr.Height())
	}
}

func TestCursor(t *testing.T) {
	tr := newTree(t, 256, Config{})
	for i := 0; i < 100; i += 2 { // even keys only
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	c := tr.NewCursor(nil)
	c.Seek(key(31)) // absent; lands on 32
	if !c.Valid() || !bytes.Equal(c.Key(), key(32)) {
		t.Fatalf("Seek(31) landed on %q valid=%v", c.Key(), c.Valid())
	}
	v, err := c.Value()
	if err != nil || !bytes.Equal(v, val(32)) {
		t.Fatalf("Value = %q, %v", v, err)
	}
	c.Next()
	if !bytes.Equal(c.Key(), key(34)) {
		t.Fatalf("Next landed on %q", c.Key())
	}
	c.Seek(key(99))
	if c.Valid() {
		t.Fatal("Seek past the end is valid")
	}
	c.First()
	if !c.Valid() || !bytes.Equal(c.Key(), key(0)) {
		t.Fatal("First broken")
	}
	n := 0
	for c.First(); c.Valid(); c.Next() {
		n++
	}
	if n != 50 || c.Err() != nil {
		t.Fatalf("full cursor walk saw %d entries, err=%v", n, c.Err())
	}
	if _, err := c.Value(); err == nil {
		t.Error("Value on invalid cursor succeeded")
	}
}

func TestNormalizeIntervals(t *testing.T) {
	b := func(s string) []byte { return []byte(s) }
	ivs := NormalizeIntervals([]Interval{
		{b("m"), b("p")},
		{b("a"), b("c")},
		{b("b"), b("d")}, // overlaps previous
		{b("d"), b("e")}, // touches
		{b("x"), b("x")}, // empty
	})
	want := []Interval{{b("a"), b("e")}, {b("m"), b("p")}}
	if len(ivs) != len(want) {
		t.Fatalf("got %d intervals: %+v", len(ivs), ivs)
	}
	for i := range want {
		if !bytes.Equal(ivs[i].Lo, want[i].Lo) || !bytes.Equal(ivs[i].Hi, want[i].Hi) {
			t.Fatalf("interval %d = %q..%q", i, ivs[i].Lo, ivs[i].Hi)
		}
	}
	// nil bounds merge to widest.
	ivs = NormalizeIntervals([]Interval{{b("k"), nil}, {nil, b("c")}, {b("a"), b("b")}})
	if len(ivs) != 2 || ivs[0].Lo != nil || ivs[1].Hi != nil {
		t.Fatalf("nil-bound normalize: %+v", ivs)
	}
}

func TestMultiScan(t *testing.T) {
	tr := newTree(t, 256, Config{})
	const n = 1000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	ivs := []Interval{
		{key(10), key(20)},
		{key(500), key(505)},
		{key(990), nil},
	}
	var got []string
	err := tr.MultiScan(nil, ivs, nil, func(k, v []byte) ([]byte, bool, error) {
		got = append(got, string(k))
		return nil, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 10; i < 20; i++ {
		want = append(want, string(key(i)))
	}
	for i := 500; i < 505; i++ {
		want = append(want, string(key(i)))
	}
	for i := 990; i < n; i++ {
		want = append(want, string(key(i)))
	}
	if len(got) != len(want) {
		t.Fatalf("MultiScan returned %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MultiScan[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestMultiScanPageEfficiency is the paper's Table-1 point (queries 3 vs 3b,
// 4 vs 4b): for dispersed intervals, the parallel algorithm must touch far
// fewer pages than a forward scan across the whole span.
func TestMultiScanPageEfficiency(t *testing.T) {
	tr := newTree(t, 256, Config{})
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	ivs := []Interval{{key(0), key(5)}, {key(2500), key(2505)}, {key(4990), key(4995)}}

	trkPar := pager.NewTracker()
	parCount := 0
	if err := tr.MultiScan(nil, ivs, trkPar, func(k, v []byte) ([]byte, bool, error) {
		parCount++
		return nil, false, nil
	}); err != nil {
		t.Fatal(err)
	}

	trkFwd := pager.NewTracker()
	fwdCount := 0
	if err := tr.Scan(nil, key(0), key(4995), trkFwd, func(k, v []byte) ([]byte, bool, error) {
		for _, iv := range ivs {
			if iv.contains(k) {
				fwdCount++
				break
			}
		}
		return nil, false, nil
	}); err != nil {
		t.Fatal(err)
	}
	if parCount != 15 || fwdCount != 15 {
		t.Fatalf("match counts: parallel %d, forward %d, want 15", parCount, fwdCount)
	}
	if trkPar.Reads()*10 > trkFwd.Reads() {
		t.Fatalf("parallel scan read %d pages, forward %d; expected >10x advantage",
			trkPar.Reads(), trkFwd.Reads())
	}
}

func TestMultiScanSkip(t *testing.T) {
	tr := newTree(t, 256, Config{})
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Visit one key then skip ahead by 100 each time.
	var got []string
	next := 0
	err := tr.MultiScan(nil, []Interval{{key(0), nil}}, nil, func(k, v []byte) ([]byte, bool, error) {
		got = append(got, string(k))
		next += 100
		if next >= n {
			return nil, true, nil
		}
		return key(next), false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("skip scan saw %d keys: %v", len(got), got)
	}
	for i, k := range got {
		if k != string(key(i*100)) {
			t.Fatalf("skip scan [%d] = %q", i, k)
		}
	}
	// A skip that does not advance must error.
	err = tr.MultiScan(nil, []Interval{{key(0), nil}}, nil, func(k, v []byte) ([]byte, bool, error) {
		return key(0), false, nil
	})
	if err == nil {
		t.Fatal("non-advancing skip succeeded")
	}
}

// TestMultiScanSkipSavesPages checks the skip mechanism prunes whole
// subtrees (the paper's parent-node skip for queries with mid-path
// predicates).
func TestMultiScanSkipSavesPages(t *testing.T) {
	tr := newTree(t, 256, Config{})
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	trk := pager.NewTracker()
	seen := 0
	err := tr.MultiScan(nil, []Interval{{nil, nil}}, trk, func(k, v []byte) ([]byte, bool, error) {
		seen++
		if seen == 1 {
			return key(n - 2), false, nil // jump over almost everything
		}
		return nil, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 3 { // key 0, key n-2, key n-1
		t.Fatalf("saw %d keys, want 3", seen)
	}
	pages, _ := tr.PageCount()
	if trk.Reads() > pages/10 {
		t.Fatalf("skip scan read %d of %d pages", trk.Reads(), pages)
	}
}

func TestMultiScanMatchesScanRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := newTree(t, 128, Config{})
	const n = 1500
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 50; trial++ {
		var ivs []Interval
		for j := 0; j < 1+rng.Intn(5); j++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a > b {
				a, b = b, a
			}
			ivs = append(ivs, Interval{key(a), key(b)})
		}
		var multi []string
		if err := tr.MultiScan(nil, ivs, nil, func(k, v []byte) ([]byte, bool, error) {
			multi = append(multi, string(k))
			return nil, false, nil
		}); err != nil {
			t.Fatal(err)
		}
		var fwd []string
		norm := NormalizeIntervals(ivs)
		if err := tr.Scan(nil, nil, nil, nil, func(k, v []byte) ([]byte, bool, error) {
			for _, iv := range norm {
				if iv.contains(k) {
					fwd = append(fwd, string(k))
					break
				}
			}
			return nil, false, nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(multi) != len(fwd) {
			t.Fatalf("trial %d: multi %d keys, forward %d", trial, len(multi), len(fwd))
		}
		for i := range multi {
			if multi[i] != fwd[i] {
				t.Fatalf("trial %d: divergence at %d: %q vs %q", trial, i, multi[i], fwd[i])
			}
		}
	}
}

func TestBulkLoad(t *testing.T) {
	for _, cfg := range []Config{{}, {MaxEntries: 10}} {
		t.Run(fmt.Sprintf("cfg%+v", cfg), func(t *testing.T) {
			tr := newTree(t, 256, cfg)
			const n = 3000
			keys := make([][]byte, n)
			vals := make([][]byte, n)
			for i := range keys {
				keys[i], vals[i] = key(i), val(i)
			}
			if err := tr.BulkLoad(SliceSource(keys, vals)); err != nil {
				t.Fatalf("BulkLoad: %v", err)
			}
			if tr.Len() != n {
				t.Fatalf("Len = %d", tr.Len())
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("Check: %v", err)
			}
			for i := 0; i < n; i += 97 {
				v, ok, err := tr.Get(keys[i], nil)
				if err != nil || !ok || !bytes.Equal(v, vals[i]) {
					t.Fatalf("Get(%d) = %q, %v, %v", i, v, ok, err)
				}
			}
			// The tree must remain fully mutable after a bulk load.
			if err := tr.Insert([]byte("key-0000005a"), []byte("new")); err != nil {
				t.Fatal(err)
			}
			if ok, err := tr.Delete(key(1000)); !ok || err != nil {
				t.Fatal("Delete after BulkLoad failed")
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("Check after post-load mutations: %v", err)
			}
		})
	}
}

func TestBulkLoadValidation(t *testing.T) {
	tr := newTree(t, 256, Config{})
	err := tr.BulkLoad(SliceSource([][]byte{key(2), key(1)}, nil))
	if err == nil {
		t.Error("BulkLoad with descending keys succeeded")
	}
	tr2 := newTree(t, 256, Config{})
	if err := tr2.Insert(key(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := tr2.BulkLoad(SliceSource([][]byte{key(2)}, nil)); err == nil {
		t.Error("BulkLoad into non-empty tree succeeded")
	}
	tr3 := newTree(t, 256, Config{})
	if err := tr3.BulkLoad(SliceSource(nil, nil)); err != nil {
		t.Errorf("BulkLoad of nothing: %v", err)
	}
	if err := tr3.Check(); err != nil {
		t.Error(err)
	}
	if err := tr3.Insert(key(1), val(1)); err != nil {
		t.Errorf("Insert after empty BulkLoad: %v", err)
	}
}

func TestBulkLoadEqualsInsertLoad(t *testing.T) {
	const n = 2000
	bulk := newTree(t, 256, Config{})
	inc := newTree(t, 256, Config{})
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i], vals[i] = key(i), val(i)
		if err := inc.Insert(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bulk.BulkLoad(SliceSource(keys, vals)); err != nil {
		t.Fatal(err)
	}
	var a, b []string
	collect := func(tr *Tree, out *[]string) {
		if err := tr.Scan(nil, nil, nil, nil, func(k, v []byte) ([]byte, bool, error) {
			*out = append(*out, string(k)+"="+string(v))
			return nil, false, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	collect(bulk, &a)
	collect(inc, &b)
	if len(a) != len(b) {
		t.Fatalf("bulk has %d entries, incremental %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %q vs %q", i, a[i], b[i])
		}
	}
	// Bulk load should not need more pages than incremental build.
	pa, _ := bulk.PageCount()
	pb, _ := inc.PageCount()
	if pa > pb*3/2 {
		t.Fatalf("bulk load used %d pages, incremental %d", pa, pb)
	}
}

func TestOverflowValues(t *testing.T) {
	f := pager.NewMemFile(256)
	tr, err := Create(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 5000)
	if err := tr.Insert([]byte("big"), big); err != nil {
		t.Fatalf("Insert big value: %v", err)
	}
	trk := pager.NewTracker()
	v, ok, err := tr.Get([]byte("big"), trk)
	if err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("Get big = %d bytes, %v, %v", len(v), ok, err)
	}
	// Reading the value must account for the overflow chain pages.
	wantChain := (len(big) + 251) / 252
	if trk.Reads() < wantChain {
		t.Fatalf("big read touched %d pages, chain alone is %d", trk.Reads(), wantChain)
	}
	// Replacing the value must free the old chain.
	before := f.NumPages()
	if err := tr.Insert([]byte("big"), []byte("small now")); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() >= before {
		t.Fatalf("pages did not shrink after replacing overflow value: %d -> %d", before, f.NumPages())
	}
	// And delete must free chains too.
	if err := tr.Insert([]byte("big2"), big); err != nil {
		t.Fatal(err)
	}
	mid := f.NumPages()
	if _, err := tr.Delete([]byte("big2")); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() >= mid {
		t.Fatal("pages did not shrink after deleting overflow value")
	}
	// Overflow values survive serialization.
	if err := tr.Insert([]byte("big3"), big); err != nil {
		t.Fatal(err)
	}
	if err := tr.DropCache(); err != nil {
		t.Fatal(err)
	}
	v, ok, err = tr.Get([]byte("big3"), nil)
	if err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("Get big3 after reload failed: %v %v", ok, err)
	}
}

func TestFrontCompressionRaisesFanout(t *testing.T) {
	// Keys sharing a long prefix must pack far more densely than random
	// keys of the same length — the paper's core storage argument.
	shared := newTree(t, 256, Config{})
	random := newTree(t, 256, Config{})
	rng := rand.New(rand.NewSource(5))
	const n = 2000
	prefix := "customer/order/2026/region-north/"
	randKeys := make([]string, n)
	for i := range randKeys {
		b := make([]byte, len(prefix)+6)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		randKeys[i] = string(b)
	}
	sort.Strings(randKeys)
	for i := 0; i < n; i++ {
		if err := shared.Insert([]byte(fmt.Sprintf("%s%06d", prefix, i)), nil); err != nil {
			t.Fatal(err)
		}
		if err := random.Insert([]byte(randKeys[i]), nil); err != nil {
			t.Fatal(err)
		}
	}
	ps, _ := shared.PageCount()
	pr, _ := random.PageCount()
	if ps*2 > pr {
		t.Fatalf("compression ineffective: shared-prefix tree %d pages, random tree %d", ps, pr)
	}
}

func TestShortestSep(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"abc", "abd", "abd"},
		{"abc", "abdzzz", "abd"},
		{"a", "ab", "ab"},
		{"car", "cat", "cat"},
		{"app", "apple", "appl"},
		{"x", "y", "y"},
	}
	for _, tc := range cases {
		got := shortestSep([]byte(tc.a), []byte(tc.b))
		if string(got) != tc.want {
			t.Errorf("shortestSep(%q, %q) = %q, want %q", tc.a, tc.b, got, tc.want)
		}
		if !(tc.a < string(got) && string(got) <= tc.b) {
			t.Errorf("shortestSep(%q, %q) = %q violates a < s <= b", tc.a, tc.b, got)
		}
	}
}

func TestCountModeMatchesPaper(t *testing.T) {
	// Experiment 1 geometry: max 10 entries per node. With n records the
	// paper expects roughly n/ (m/2 avg fill) leaves; just validate the
	// cap is respected everywhere via Check and that the node count is in
	// a plausible band.
	tr := newTree(t, 1024, Config{MaxEntries: 10})
	const n = 2000
	perm := rand.New(rand.NewSource(10)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	pages, _ := tr.PageCount()
	if pages < n/10 || pages > n/2 {
		t.Fatalf("count-mode tree has %d pages for %d entries", pages, n)
	}
}

func TestTreeStats(t *testing.T) {
	tr := newTree(t, 256, Config{})
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != n || st.Height != tr.Height() {
		t.Fatalf("stats = %+v", st)
	}
	if st.LeafNodes == 0 || st.InternalNodes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LeafFill < 0.3 || st.LeafFill > 1.0 {
		t.Fatalf("implausible leaf fill %f", st.LeafFill)
	}
	// Sequential keys share long prefixes: compression keeps the mean
	// entry under the raw key size.
	if st.BytesPerEntry >= float64(len(key(0))) {
		t.Fatalf("BytesPerEntry = %f, raw key is %d bytes", st.BytesPerEntry, len(key(0)))
	}
	// Count-mode fill is measured in entries.
	tc := newTree(t, 1024, Config{MaxEntries: 10})
	for i := 0; i < 500; i++ {
		if err := tc.Insert(key(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	stc, err := tc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stc.LeafFill < 0.4 || stc.LeafFill > 1.0 {
		t.Fatalf("count-mode fill %f", stc.LeafFill)
	}
}
