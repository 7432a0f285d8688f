package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/pager"
)

// TestQuickRandomOps drives random operation sequences (seeded via
// testing/quick) against a reference map and validates tree invariants and
// contents afterwards.
func TestQuickRandomOps(t *testing.T) {
	check := func(seed int64, countMode bool) bool {
		return checkQuickRandomOps(t, seed, countMode)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func checkQuickRandomOps(t *testing.T, seed int64, countMode bool) bool {
	{
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{}
		if countMode {
			cfg.MaxEntries = 3 + rng.Intn(8)
		}
		f := pager.NewMemFile(128)
		tr, err := Create(f, cfg)
		if err != nil {
			t.Error(err)
			return false
		}
		model := map[string]string{}
		for op := 0; op < 600; op++ {
			k := fmt.Sprintf("%0*d", 1+rng.Intn(10), rng.Intn(150))
			switch rng.Intn(5) {
			case 0, 1, 2:
				v := fmt.Sprintf("v%d", rng.Intn(50))
				if err := tr.Insert([]byte(k), []byte(v)); err != nil {
					t.Errorf("Insert: %v", err)
					return false
				}
				model[k] = v
			case 3:
				ok, err := tr.Delete([]byte(k))
				if err != nil {
					t.Errorf("Delete: %v", err)
					return false
				}
				if _, in := model[k]; ok != in {
					t.Errorf("Delete(%q) = %v, model %v", k, ok, in)
					return false
				}
				delete(model, k)
			case 4:
				v, ok, err := tr.Get([]byte(k), nil)
				if err != nil {
					t.Errorf("Get: %v", err)
					return false
				}
				want, in := model[k]
				if ok != in || (ok && string(v) != want) {
					t.Errorf("Get(%q) = %q,%v; model %q,%v", k, v, ok, want, in)
					return false
				}
			}
		}
		if err := tr.Check(); err != nil {
			t.Errorf("Check: %v", err)
			return false
		}
		if tr.Len() != len(model) {
			t.Errorf("Len = %d, model %d", tr.Len(), len(model))
			return false
		}
		// Serialization round trip preserves everything.
		tr.DropCache()
		n := 0
		err = tr.Scan(nil, nil, nil, nil, func(k, v []byte) ([]byte, bool, error) {
			n++
			if model[string(k)] != string(v) {
				return nil, true, fmt.Errorf("content mismatch at %q", k)
			}
			return nil, false, nil
		})
		if err != nil || n != len(model) {
			t.Errorf("post-reload scan: n=%d err=%v", n, err)
			return false
		}
		return true
	}
}

// TestQuickMultiScan verifies MultiScan against a model for random interval
// families, including degenerate and unbounded intervals.
func TestQuickMultiScan(t *testing.T) {
	tr := newTree(t, 128, Config{})
	var keys []string
	for i := 0; i < 800; i++ {
		k := fmt.Sprintf("k%04d", i*3) // gaps between keys
		keys = append(keys, k)
		if err := tr.Insert([]byte(k), nil); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(keys)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ivs []Interval
		for j := 0; j < rng.Intn(6); j++ {
			var lo, hi []byte
			if rng.Intn(8) > 0 {
				lo = []byte(fmt.Sprintf("k%04d", rng.Intn(2600)))
			}
			if rng.Intn(8) > 0 {
				hi = []byte(fmt.Sprintf("k%04d", rng.Intn(2600)))
			}
			ivs = append(ivs, Interval{lo, hi})
		}
		var got []string
		if err := tr.MultiScan(nil, ivs, nil, func(k, v []byte) ([]byte, bool, error) {
			got = append(got, string(k))
			return nil, false, nil
		}); err != nil {
			t.Error(err)
			return false
		}
		norm := NormalizeIntervals(ivs)
		var want []string
		for _, k := range keys {
			for _, iv := range norm {
				if iv.contains([]byte(k)) {
					want = append(want, k)
					break
				}
			}
		}
		if len(got) != len(want) {
			t.Errorf("seed %d: got %d keys, want %d", seed, len(got), len(want))
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("seed %d: [%d] %q != %q", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBinaryKeys stresses arbitrary byte-string keys (NULs, 0xFF,
// shared prefixes) through insert/lookup/serialize.
func TestQuickBinaryKeys(t *testing.T) {
	check := func(raw [][]byte) bool {
		tr := newTree(t, 256, Config{})
		model := map[string]bool{}
		for _, k := range raw {
			if len(k) == 0 || len(k) > tr.maxKeySize() {
				continue
			}
			if err := tr.Insert(k, nil); err != nil {
				t.Errorf("Insert(%x): %v", k, err)
				return false
			}
			model[string(k)] = true
		}
		tr.DropCache()
		if err := tr.Check(); err != nil {
			t.Errorf("Check: %v", err)
			return false
		}
		for k := range model {
			if _, ok, err := tr.Get([]byte(k), nil); err != nil || !ok {
				t.Errorf("Get(%x) = %v, %v", k, ok, err)
				return false
			}
		}
		return tr.Len() == len(model)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDiskBackedTree runs a full life cycle against a DiskFile, closing and
// reopening the file between phases.
func TestDiskBackedTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	f, err := pager.CreateDiskFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	meta := tr.MetaPage() // COW metadata: the id is valid only after Flush
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := pager.OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	re, err := Open(f2, meta)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != n {
		t.Fatalf("reopened Len = %d", re.Len())
	}
	if err := re.Check(); err != nil {
		t.Fatal(err)
	}
	// Mutate after reopen, flush, reopen again.
	for i := 0; i < n; i += 2 {
		if ok, err := re.Delete(key(i)); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
		}
	}
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(f2, re.MetaPage())
	if err != nil {
		t.Fatal(err)
	}
	if re2.Len() != n/2 {
		t.Fatalf("Len after deletes = %d", re2.Len())
	}
	for i := 0; i < n; i++ {
		_, ok, err := re2.Get(key(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (i%2 == 1) {
			t.Fatalf("Get(%d) = %v after deletes", i, ok)
		}
	}
	if err := re2.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReads exercises the tree's concurrency claim: many
// goroutines reading (Get/Scan/MultiScan) simultaneously.
func TestConcurrentReads(t *testing.T) {
	tr := newTree(t, 256, Config{})
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				switch rng.Intn(3) {
				case 0:
					j := rng.Intn(n)
					v, ok, err := tr.Get(key(j), nil)
					if err != nil || !ok || !bytes.Equal(v, val(j)) {
						errs <- fmt.Errorf("Get(%d) = %q,%v,%v", j, v, ok, err)
						return
					}
				case 1:
					lo := rng.Intn(n - 10)
					cnt := 0
					if err := tr.Scan(nil, key(lo), key(lo+10), nil, func(k, v []byte) ([]byte, bool, error) {
						cnt++
						return nil, false, nil
					}); err != nil || cnt != 10 {
						errs <- fmt.Errorf("Scan: cnt=%d err=%v", cnt, err)
						return
					}
				case 2:
					a, b := rng.Intn(n/2), n/2+rng.Intn(n/2-5)
					if err := tr.MultiScan(nil, []Interval{{key(a), key(a + 3)}, {key(b), key(b + 3)}}, nil,
						func(k, v []byte) ([]byte, bool, error) { return nil, false, nil }); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRegressionOversizedNodes pins the testing/quick seed that exposed two
// real bugs: (1) replacing a value with a larger one grew a leaf past the
// page size without splitting; (2) a borrow rotation replaced a parent's
// boundary separator with a longer key, overflowing the parent.
func TestRegressionOversizedNodes(t *testing.T) {
	if !checkQuickRandomOps(t, -1936495020866070823, false) {
		t.Fatal("regression seed failed")
	}
}
